package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// finding is one rpqvet diagnostic.
type finding struct {
	pos   token.Position
	check string // "noprint", "ctxvariant", "atomicalign"
	msg   string
}

// pkgFiles is the parsed non-test files of one package directory.
type pkgFiles struct {
	fset  *token.FileSet
	dir   string
	files []*ast.File
	names []string // base name of files[i]
}

// coreDir reports whether the package is the solver core, where the noprint
// and ctxvariant invariants apply.
func (p *pkgFiles) coreDir() bool {
	d := filepath.ToSlash(p.dir)
	return strings.HasSuffix(d, "internal/core") || strings.Contains(d, "internal/core/")
}

// analyzePackage runs every check that applies to the package.
func analyzePackage(p *pkgFiles) []finding {
	var out []finding
	if p.coreDir() {
		for i, f := range p.files {
			// instr.go is the phase-timing helper file: reading the clock
			// is its whole job.
			if p.names[i] == "instr.go" {
				continue
			}
			out = append(out, checkNoPrint(p.fset, f)...)
		}
		out = append(out, checkCtxVariant(p.fset, p.files)...)
	}
	out = append(out, checkAtomicAlign(p.fset, p.files)...)
	return out
}

// allowedLines collects //rpqvet:allow <token> comments; a comment suppresses
// findings of that token on its own line and on the following line (so the
// comment can sit above the flagged statement).
func allowedLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	allowed := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "rpqvet:allow")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, tok := range strings.Fields(rest) {
				for _, l := range []int{line, line + 1} {
					if allowed[l] == nil {
						allowed[l] = map[string]bool{}
					}
					allowed[l][tok] = true
				}
			}
		}
	}
	return allowed
}

// checkNoPrint flags fmt.Print* and time.Now calls: solver hot paths must
// report through stats, and clock reads outside the instrumented
// phase helpers have a history of becoming per-pop overhead. Suppress
// deliberate sites with //rpqvet:allow print or //rpqvet:allow timenow.
func checkNoPrint(fset *token.FileSet, f *ast.File) []finding {
	allowed := allowedLines(fset, f)
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pos := fset.Position(call.Pos())
		report := func(tok, msg string) {
			if allowed[pos.Line][tok] {
				return
			}
			out = append(out, finding{pos: pos, check: "noprint", msg: msg})
		}
		switch {
		case pkg.Name == "fmt" && strings.HasPrefix(sel.Sel.Name, "Print"):
			report("print", fmt.Sprintf("fmt.%s in solver core: return it in stats or explain", sel.Sel.Name))
		case pkg.Name == "time" && sel.Sel.Name == "Now":
			report("timenow", "time.Now in solver core outside instr.go: use the phase-timing helpers, or annotate //rpqvet:allow timenow if this is deliberate coarse timing")
		}
		return true
	})
	return out
}

// checkCtxVariant enforces the entry-point pairing: every exported top-level
// function taking the package's Options must have a <Name>Context companion
// whose first parameter is a context.Context, so cancellation support cannot
// be skipped when a solver variant is added.
func checkCtxVariant(fset *token.FileSet, files []*ast.File) []finding {
	// First pass: index the exported top-level functions by name.
	funcs := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	var out []finding
	for _, f := range files {
		allowed := allowedLines(fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if strings.HasSuffix(name, "Context") || !takesOptions(fd) || firstParamIsContext(fd) {
				continue
			}
			pos := fset.Position(fd.Pos())
			if allowed[pos.Line]["ctxvariant"] {
				continue
			}
			ctx, ok := funcs[name+"Context"]
			switch {
			case !ok:
				out = append(out, finding{pos: pos, check: "ctxvariant",
					msg: fmt.Sprintf("exported solver entry point %s has no %sContext variant", name, name)})
			case !firstParamIsContext(ctx):
				out = append(out, finding{pos: fset.Position(ctx.Pos()), check: "ctxvariant",
					msg: fmt.Sprintf("%sContext must take a context.Context as its first parameter", name)})
			}
		}
	}
	return out
}

// takesOptions reports whether any parameter is of the in-package type
// Options (the signature marker of a solver entry point).
func takesOptions(fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		if id, ok := p.Type.(*ast.Ident); ok && id.Name == "Options" {
			return true
		}
	}
	return false
}

// firstParamIsContext reports whether the function's first parameter is
// context.Context.
func firstParamIsContext(fd *ast.FuncDecl) bool {
	ps := fd.Type.Params.List
	if len(ps) == 0 {
		return false
	}
	sel, ok := ps[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// atomic64Funcs are the sync/atomic functions whose first argument must be a
// 64-bit-aligned address.
var atomic64Funcs = map[string]bool{
	"AddInt64": true, "LoadInt64": true, "StoreInt64": true, "SwapInt64": true, "CompareAndSwapInt64": true,
	"AddUint64": true, "LoadUint64": true, "StoreUint64": true, "SwapUint64": true, "CompareAndSwapUint64": true,
}

// checkAtomicAlign finds struct fields of raw int64/uint64 type that are
// passed by address to sync/atomic 64-bit functions and whose offset under
// 32-bit struct layout is not 8-byte aligned — the classic GOARCH=386/arm
// panic. It is syntactic: field references are matched to struct
// declarations by field name within the package, which is conservative in
// the right direction for a repo-local invariant (the fix either way is the
// atomic.Int64 wrapper type, which is immune). Suppress a deliberate layout
// with //rpqvet:allow atomicalign on the field.
func checkAtomicAlign(fset *token.FileSet, files []*ast.File) []finding {
	// Pass 1: names of fields used as &x.f in atomic 64-bit calls.
	accessed := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "atomic" || !atomic64Funcs[sel.Sel.Name] {
				return true
			}
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			if fsel, ok := un.X.(*ast.SelectorExpr); ok {
				accessed[fsel.Sel.Name] = true
			}
			return true
		})
	}
	if len(accessed) == 0 {
		return nil
	}

	// Pass 2: lay out every declared struct under 32-bit rules and flag
	// accessed raw 64-bit fields at misaligned offsets.
	var out []finding
	for _, f := range files {
		allowed := allowedLines(fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			offset := 0
			for _, field := range st.Fields.List {
				sz, al := sizeAlign32(field.Type)
				for _, name := range field.Names {
					offset = align(offset, al)
					if is64(field.Type) && accessed[name.Name] && offset%8 != 0 {
						pos := fset.Position(name.Pos())
						if !allowed[pos.Line]["atomicalign"] {
							out = append(out, finding{pos: pos, check: "atomicalign",
								msg: fmt.Sprintf("atomically accessed 64-bit field %s.%s is at 32-bit offset %d; move it first or use atomic.%s", ts.Name.Name, name.Name, offset, wrapperFor(field.Type))})
						}
					}
					offset += sz
				}
				if len(field.Names) == 0 { // embedded
					offset = align(offset, al) + sz
				}
			}
			return true
		})
	}
	return out
}

func align(off, a int) int {
	if a <= 1 {
		return off
	}
	return (off + a - 1) / a * a
}

func is64(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && (id.Name == "int64" || id.Name == "uint64")
}

func wrapperFor(t ast.Expr) string {
	if id, ok := t.(*ast.Ident); ok && id.Name == "uint64" {
		return "Uint64"
	}
	return "Int64"
}

// sizeAlign32 conservatively models a type's size and alignment under 32-bit
// layout, where words (pointers, int, uint, uintptr) are 4 bytes and 64-bit
// scalars have only 4-byte alignment — exactly the regime in which a 64-bit
// atomic can land misaligned. Unknown types are treated as one word, which
// matches pointers/maps/chans/funcs and keeps composite offsets plausible.
func sizeAlign32(t ast.Expr) (size, al int) {
	switch tt := t.(type) {
	case *ast.Ident:
		switch tt.Name {
		case "bool", "int8", "uint8", "byte":
			return 1, 1
		case "int16", "uint16":
			return 2, 2
		case "int32", "uint32", "rune", "float32", "int", "uint", "uintptr":
			return 4, 4
		case "int64", "uint64", "float64":
			return 8, 4 // the hazard: 8 bytes, 4-byte alignment on 32-bit
		case "complex64":
			return 8, 4
		case "complex128":
			return 16, 4
		case "string":
			return 8, 4 // pointer + len
		}
		return 4, 4 // in-package named type: assume word-ish
	case *ast.ArrayType:
		esz, eal := sizeAlign32(tt.Elt)
		if tt.Len == nil {
			return 12, 4 // slice header
		}
		if lit, ok := tt.Len.(*ast.BasicLit); ok {
			n := 0
			fmt.Sscanf(lit.Value, "%d", &n)
			return n * esz, eal
		}
		return esz, eal
	case *ast.StructType:
		off, maxAl := 0, 1
		for _, f := range tt.Fields.List {
			sz, a := sizeAlign32(f.Type)
			if a > maxAl {
				maxAl = a
			}
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				off = align(off, a) + sz
			}
		}
		return align(off, maxAl), maxAl
	case *ast.InterfaceType:
		return 8, 4 // two words
	}
	// pointer, map, chan, func, qualified name: one word
	return 4, 4
}
