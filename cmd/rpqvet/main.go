// Command rpqvet is a repository-local static checker enforcing solver
// invariants that generic go vet cannot know about:
//
//	noprint      internal/core hot paths must not call fmt.Print* or
//	             time.Now outside the phase-timing helpers (instr.go);
//	             solver output goes through stats and explain, and
//	             ad-hoc clock reads have shown up as per-pop overhead.
//	ctxvariant   every exported solver entry point in internal/core that
//	             takes Options must have a Context-taking companion
//	             (Exist -> ExistContext), so cancellation is never an
//	             afterthought on new solvers.
//	atomicalign  struct fields of raw int64/uint64 type that are passed
//	             to sync/atomic functions must be 64-bit aligned under
//	             32-bit struct layout (prefer the atomic.Int64 wrapper
//	             types, which are immune).
//
// A finding can be suppressed where it is legitimate with a trailing or
// preceding comment naming the check's token:
//
//	t0 := time.Now() //rpqvet:allow timenow
//
// Usage: rpqvet [packages]; package arguments are directories, with the
// go-style "dir/..." form walking recursively. Defaults to "./...".
// It is pure go/ast analysis (no type checking, no build), so it runs
// with `go run ./cmd/rpqvet ./...` on a bare checkout.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expandPatterns(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpqvet:", err)
		os.Exit(2)
	}

	var all []finding
	for _, dir := range dirs {
		fs, err := parseDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpqvet:", err)
			os.Exit(2)
		}
		if fs == nil {
			continue
		}
		all = append(all, analyzePackage(fs)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, f := range all {
		fmt.Printf("%s: rpqvet/%s: %s\n", f.pos, f.check, f.msg)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// expandPatterns resolves go-style package arguments to directories: a
// trailing "/..." walks recursively, anything else is taken literally.
// Hidden directories, testdata, and vendor are skipped.
func expandPatterns(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, a := range args {
		root, rec := strings.CutSuffix(a, "...")
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		if !rec {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory into a fileSet, or
// returns nil when the directory holds no Go files.
func parseDir(dir string) (*pkgFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pf := &pkgFiles{fset: token.NewFileSet(), dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(pf.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pf.files = append(pf.files, f)
		pf.names = append(pf.names, name)
	}
	if len(pf.files) == 0 {
		return nil, nil
	}
	return pf, nil
}
