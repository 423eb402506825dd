package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The solver core's source rules, checked with go/parser over the
// package's own non-test files:
//
//	noprint     no fmt.Print* and no time.Now outside instr.go, the
//	            phase-timing helpers: solver output goes through stats and
//	            explain, and ad-hoc clock reads have shown up as per-pop
//	            overhead.
//	ctxvariant  every exported function taking Options has a <Name>Context
//	            companion whose first parameter is a context.Context, so
//	            cancellation is never an afterthought on a new solver.
//
// A deliberate noprint site carries a comment naming the call's token on
// its own line or the line above it: //rpqvet:allow timenow (or print).
//
// A third rule, atomic64, holds for every production file of the
// repository: no call of a 64-bit sync/atomic function, whose operand must
// be 64-bit aligned by hand on 32-bit platforms. The atomic.Int64 and
// atomic.Uint64 types are aligned everywhere.

// noprint returns the fmt.Print* and time.Now calls of f that no allow
// comment covers; instr.go is exempt.
func noprint(fset *token.FileSet, f *ast.File) []string {
	if filepath.Base(fset.File(f.Pos()).Name()) == "instr.go" {
		return nil
	}
	allowed := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//rpqvet:allow")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if allowed[l] == nil {
					allowed[l] = map[string]bool{}
				}
				for _, tok := range strings.Fields(rest) {
					allowed[l][tok] = true
				}
			}
		}
	}
	var out []string
	eachPkgCall(f, func(call *ast.CallExpr, name string) {
		tok := ""
		switch {
		case strings.HasPrefix(name, "fmt.Print"):
			tok = "print"
		case name == "time.Now":
			tok = "timenow"
		}
		if pos := fset.Position(call.Pos()); tok != "" && !allowed[pos.Line][tok] {
			out = append(out, fmt.Sprintf("%s: %s in the solver core (allow with //rpqvet:allow %s)", pos, name, tok))
		}
	})
	return out
}

// ctxvariant returns the exported functions taking Options that lack a
// <Name>Context companion leading with a context.Context.
func ctxvariant(fset *token.FileSet, files []*ast.File) []string {
	funcs := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || funcs[fd.Name.Name] != fd || strings.HasSuffix(fd.Name.Name, "Context") || !takesOptions(fd) || firstParamIsContext(fd) {
				continue
			}
			if ctx, ok := funcs[fd.Name.Name+"Context"]; !ok || !firstParamIsContext(ctx) {
				out = append(out, fmt.Sprintf("%s: %s has no %[2]sContext(ctx context.Context, ...)", fset.Position(fd.Pos()), fd.Name.Name))
			}
		}
	}
	return out
}

func takesOptions(fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		if id, ok := p.Type.(*ast.Ident); ok && id.Name == "Options" {
			return true
		}
	}
	return false
}

func firstParamIsContext(fd *ast.FuncDecl) bool {
	ps := fd.Type.Params.List
	return len(ps) > 0 && selectorName(ps[0].Type) == "context.Context"
}

// atomic64 returns the calls of f to a 64-bit sync/atomic function.
func atomic64(fset *token.FileSet, f *ast.File) []string {
	var out []string
	eachPkgCall(f, func(call *ast.CallExpr, name string) {
		if rest, ok := strings.CutPrefix(name, "atomic."); ok && (strings.HasSuffix(rest, "Int64") || strings.HasSuffix(rest, "Uint64")) {
			out = append(out, fmt.Sprintf("%s: %s: use the atomic.Int64 or atomic.Uint64 type", fset.Position(call.Pos()), name))
		}
	})
	return out
}

// eachPkgCall calls visit, in source order, on each call in f of a
// package-qualified function, with its "pkg.Func" name.
func eachPkgCall(f *ast.File, visit func(call *ast.CallExpr, name string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := selectorName(call.Fun); name != "" {
				visit(call, name)
			}
		}
		return true
	})
}

// selectorName renders an ident.Sel expression as "ident.Sel", or "".
func selectorName(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name
		}
	}
	return ""
}

// parseProduction parses the non-test Go files under root; with walk set
// it descends into subdirectories, skipping testdata and those the go
// tool ignores.
func parseProduction(t *testing.T, root string, walk bool) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (!walk || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files under %s", root)
	}
	return fset, files
}

func TestSolverCoreSourceRules(t *testing.T) {
	fset, files := parseProduction(t, ".", false)
	findings := ctxvariant(fset, files)
	for _, f := range files {
		findings = append(findings, noprint(fset, f)...)
	}
	for _, msg := range findings {
		t.Error(msg)
	}
}

func TestNoAtomic64Calls(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset, files := parseProduction(t, root, true)
	for _, f := range files {
		for _, msg := range atomic64(fset, f) {
			t.Error(msg)
		}
	}
}

// TestSourceRulesFlagSeededFaults gives each rule a source it must flag,
// and the allow comment and the exemptions sources they must pass.
func TestSourceRulesFlagSeededFaults(t *testing.T) {
	for _, tc := range []struct {
		name, file, src string
		want            int
	}{
		{"time.Now in core fires", "solve.go", `package core
import "time"
func pop() { _ = time.Now() }`, 1},
		{"fmt.Println in core fires", "solve.go", `package core
import "fmt"
func pop() { fmt.Println("popped") }`, 1},
		{"instr.go is exempt from noprint", "instr.go", `package core
import "time"
func now() time.Time { return time.Now() }`, 0},
		{"allow comment on same line suppresses", "solve.go", `package core
import "time"
func pop() { _ = time.Now() } //rpqvet:allow timenow (coarse)`, 0},
		{"allow comment on preceding line suppresses", "solve.go", `package core
import "time"
func pop() {
	//rpqvet:allow timenow
	_ = time.Now()
}`, 0},
		{"allow comment reaches one line only", "solve.go", `package core
import "time"
func pop() {
	//rpqvet:allow timenow

	_ = time.Now()
}`, 1},
		{"allow token must match the check", "solve.go", `package core
import "time"
func pop() { _ = time.Now() } //rpqvet:allow print`, 1},
		{"entry point without Context variant fires", "exist.go", `package core
type Options struct{}
func Exist(q *Query, opts Options) error { return nil }`, 1},
		{"entry point with Context variant is clean", "exist.go", `package core
import "context"
type Options struct{}
func Exist(q *Query, opts Options) error { return ExistContext(context.Background(), q, opts) }
func ExistContext(ctx context.Context, q *Query, opts Options) error { return nil }`, 0},
		{"Context variant must lead with context.Context", "exist.go", `package core
import "context"
type Options struct{}
func Exist(q *Query, opts Options) error { return nil }
func ExistContext(q *Query, opts Options, ctx context.Context) error { return nil }`, 1},
		{"entry point itself taking ctx needs no companion", "exist.go", `package core
import "context"
type Options struct{}
func Run(ctx context.Context, opts Options) error { return nil }`, 0},
		{"unexported and non-Options functions are ignored", "exist.go", `package core
type Options struct{}
func exist(opts Options) error { return nil }
func Compile(s string) error { return nil }`, 0},
		{"atomic.AddInt64 on a field fires", "stats.go", `package obs
import "sync/atomic"
type stats struct{ n int64 }
func (s *stats) bump() { atomic.AddInt64(&s.n, 1) }`, 1},
		{"atomic.Int64 type is clean", "stats.go", `package obs
import "sync/atomic"
type stats struct{ n atomic.Int64 }
func (s *stats) bump() { s.n.Add(1) }`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, tc.file, tc.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			got := append(noprint(fset, f), ctxvariant(fset, []*ast.File{f})...)
			got = append(got, atomic64(fset, f)...)
			if len(got) != tc.want {
				t.Errorf("got %d findings, want %d: %q", len(got), tc.want, got)
			}
		})
	}
}
