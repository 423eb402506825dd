// Package gofront parses real Go packages — stdlib go/parser and go/ast
// only, no go/types — and lowers every function body to a control-flow
// graph expressed as an rpq program graph, so the paper's parametric
// dataflow queries (uninitialized use, use-after-close, lock discipline,
// defer-in-loop) run on actual Go code.
//
// # Label schema
//
// Emitted labels follow the shared internal/cfgschema vocabulary:
//
//	entry(f) / exit(f)   function entry (edge from the synthetic root) and exit
//	def(x), decl(x)      assignment to x; declaration of x without initializer
//	use(x)               read of x (plain identifiers and selector paths)
//	call(f), ret(f)      function call; interprocedural return edge
//	mcall(x, M)          method call M on receiver path x
//	close(x)             close(ch) builtin and x.Close()
//	lock/unlock(m)       x.Lock()/x.Unlock(); rlock/runlock for the R variants
//	send(x), recv(x)     channel operations
//	defer(f, s)          defer registration of f at unique site s
//	go(f)                goroutine launch
//	nop                  control flow only
//
// Symbols are qualified by package path and function — the variable n in
// function Sum of package example.com/m/util is example.com/m/util.Sum.n —
// with #2, #3... suffixes distinguishing shadowing redeclarations, so one
// query parameter never conflates distinct variables across the module.
//
// # Approximations
//
// Without go/types, identity is syntactic: a selector path x.f.mu names a
// resource by its spelling, pointer aliasing is invisible, interface and
// cross-package method calls are not linked to their targets, and address
// taking (&x) is treated as a definition. Findings derived from these
// graphs are therefore *possible* answers in the sense of Barceló et al.'s
// parameterized-language semantics — every report names a path that exists
// in the CFG, but the resource identity along it is approximate. docs/
// gofront.md documents every lowering rule and approximation.
//
// # Construction
//
// Files parse independently, and so do per-function CFGs — they share no
// state — so Load fans both out across Config.Workers goroutines. Each function's build numbers its vertices and labels
// locally and keeps a table of its distinct labels. The merge then joins
// the builds sequentially, in sorted function order: it offsets vertex
// ids, compiles each distinct label once, and points every edge at the
// graph's interned label. The merged graph (vertex numbering, label
// interning) is therefore byte-identical across worker counts. Each build
// also records its call and go sites; linking them to their callees, in
// place (Config.Interproc) or in a copy (Program.Linked), turns one
// lowering into the interprocedural graph.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/span"
)

// Config controls parsing and lowering.
type Config struct {
	// Interproc links call sites to callee entries/exits with call/ret
	// edges (and go edges to goroutine entries) when the callee is a
	// top-level function or closure of an analyzed package.
	Interproc bool
	// IncludeTests also loads _test.go files.
	IncludeTests bool
	// Workers bounds the parallel file parses and per-function CFG
	// builds; <= 0 means GOMAXPROCS.
	Workers int
}

// Location is a resolved source position for one graph vertex: the file,
// 1-based line and column, and the byte-offset span of the operation that
// produced it.
type Location struct {
	File string    `json:"file"`
	Line int       `json:"line"`
	Col  int       `json:"col"`
	Span span.Span `json:"span"`
}

func (l Location) String() string {
	return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Col)
}

// FuncInfo describes one lowered function (or function literal).
type FuncInfo struct {
	// Name is the fully qualified function name: pkgpath.Func,
	// pkgpath.Type.Method, or pkgpath.Func.func1 for literals.
	Name string
	// Package is the package path the function belongs to.
	Package string
	// Entry and Exit are the function's entry and exit vertex names.
	Entry string
	Exit  string
	// Loc is the function's declaration site.
	Loc Location
}

// Program is the lowered form of a set of Go packages: one merged program
// graph plus the source-position and suppression side tables the checks
// report through.
type Program struct {
	// Graph is the merged program graph. Its start vertex is Root, a
	// synthetic vertex with an entry(f) edge to every function's entry, so
	// one query reaches every function body.
	Graph *graph.Graph
	// Root is the synthetic start vertex's name.
	Root string
	// Funcs lists every lowered function in deterministic order.
	Funcs []FuncInfo
	// Config echoes the configuration the program was built with.
	Config Config

	pos    []Location // by vertex id; Line 0 where no operation is recorded
	files  map[string]string
	allows map[string]map[int][]string
	funcIx map[string]int
	ends   []funcEnds // entry and exit vertex of each of Funcs
	links  []link     // call and go sites, in unit order
}

// Location reports the source location recorded for a vertex, if the
// vertex corresponds to a source operation.
func (p *Program) Location(vertex string) (Location, bool) {
	v, ok := p.Graph.LookupVertex(vertex)
	if !ok || int(v) >= len(p.pos) || p.pos[v].Line == 0 {
		return Location{}, false
	}
	return p.pos[v], true
}

// Source returns the loaded source text of file.
func (p *Program) Source(file string) (string, bool) {
	s, ok := p.files[file]
	return s, ok
}

// Func finds a lowered function by qualified name.
func (p *Program) Func(name string) (FuncInfo, bool) {
	if i, ok := p.funcIx[name]; ok {
		return p.Funcs[i], true
	}
	return FuncInfo{}, false
}

// Allowed reports whether an //rpqcheck:allow comment on the finding's
// line, or on the line above it, suppresses the named check in file.
func (p *Program) Allowed(file string, line int, check string) bool {
	byLine, ok := p.allows[file]
	if !ok {
		return false
	}
	for _, ln := range [2]int{line, line - 1} {
		names, ok := byLine[ln]
		if !ok {
			continue
		}
		if len(names) == 0 {
			return true // bare //rpqcheck:allow suppresses every check
		}
		for _, n := range names {
			if n == check || n == "all" {
				return true
			}
		}
	}
	return false
}

// DebugDump renders the merged graph as deterministic text — one edge per
// line in vertex-id order — for golden tests and debugging.
func (p *Program) DebugDump() string {
	g := p.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "start %s\n", g.VertexName(g.Start()))
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, e := range g.Out(v) {
			fmt.Fprintf(&b, "%s -%s-> %s\n",
				g.VertexName(v), g.Label(e.LabelID).FormatBare(g.U), g.VertexName(e.To))
		}
	}
	return b.String()
}

// Load parses the packages named by patterns and lowers them to a Program.
// Each pattern is a directory, a directory with a /... suffix (recursive,
// skipping testdata, vendor, and hidden/underscore directories), or a
// single .go file.
func Load(patterns []string, cfg Config) (*Program, error) {
	files, err := discover(patterns, cfg)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("gofront: no Go files match %v", patterns)
	}
	srcs := make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		srcs[filepath.ToSlash(f)] = string(data)
	}
	return build(srcs, cfg, modulePathFor)
}

// LoadSource lowers in-memory sources (file name → content). Names may
// carry directory components; each directory is one package. A go.mod at
// the root supplies the module path for package qualification.
func LoadSource(files map[string]string, cfg Config) (*Program, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("gofront: no source files")
	}
	mod := ""
	for name, src := range files {
		if path.Base(name) == "go.mod" && path.Dir(name) == "." {
			mod = moduleLine(src)
		}
	}
	return build(files, cfg, func(dir string) (string, string) { return mod, "" })
}

// SplitSource splits a txtar-style body ("-- name --" separators) into a
// file map; a body with no separators becomes a single main.go.
func SplitSource(body string) map[string]string {
	const marker = "-- "
	if !strings.HasPrefix(body, marker) && !strings.Contains(body, "\n"+marker) {
		return map[string]string{"main.go": body}
	}
	files := map[string]string{}
	var name string
	var buf strings.Builder
	flush := func() {
		if name != "" {
			files[name] = buf.String()
		}
		buf.Reset()
	}
	for _, line := range strings.SplitAfter(body, "\n") {
		trimmed := strings.TrimRight(line, "\n")
		// At least 6 bytes, so the "-- " prefix and " --" suffix cannot
		// overlap (as they do in "-- --").
		if len(trimmed) >= 6 && strings.HasPrefix(trimmed, marker) && strings.HasSuffix(trimmed, " --") {
			flush()
			name = strings.TrimSpace(trimmed[len(marker) : len(trimmed)-len(" --")])
			continue
		}
		if name != "" { //rpqcheck:allow uninit-use — "" means before the first marker
			buf.WriteString(line)
		}
	}
	flush()
	if len(files) == 0 {
		return map[string]string{"main.go": body}
	}
	return files
}

// ---- discovery ----

// skipDir reports whether a walk should descend into a directory entry.
// Mirrors the go tool: testdata, vendor, and dot/underscore names are not
// part of a package pattern.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func discover(patterns []string, cfg Config) ([]string, error) {
	var dirs []string
	var files []string
	seenDir := map[string]bool{}
	addDir := func(d string) {
		d = filepath.Clean(d)
		if !seenDir[d] {
			seenDir[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		switch {
		case strings.HasSuffix(p, "/...") || p == "...":
			root := strings.TrimSuffix(p, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" || root == "." {
				root = "."
			}
			err := filepath.WalkDir(root, func(pth string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if pth != root && skipDir(d.Name()) {
					return filepath.SkipDir
				}
				addDir(pth)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("gofront: %w", err)
			}
		case strings.HasSuffix(p, ".go"):
			files = append(files, p)
		default:
			fi, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("gofront: %w", err)
			}
			if !fi.IsDir() {
				return nil, fmt.Errorf("gofront: %s is not a directory or .go file", p)
			}
			addDir(p)
		}
	}
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			if !cfg.IncludeTests && strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(d, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// modulePathFor walks up from dir looking for a go.mod; it returns the
// module path and the module root directory ("" if none).
func modulePathFor(dir string) (string, string) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			if m := moduleLine(string(data)); m != "" {
				return m, d
			}
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// ---- parsing and package grouping ----

type parsedFile struct {
	name    string // file path as loaded (map key / cleaned fs path)
	ast     *ast.File
	imports map[string]string // local name -> import path
}

type pkgUnit struct {
	path    string // derived package path used to qualify symbols
	files   []*parsedFile
	globals map[string]bool   // package-level var/const names
	funcs   map[string]string // top-level func name -> qualified name
}

// unitJob is one function body scheduled for CFG construction.
type unitJob struct {
	pkg   *pkgUnit
	file  *parsedFile
	decl  *ast.FuncDecl
	qname string
}

// fanOut calls fn(i) for every i in [0, n) on up to workers goroutines
// and returns when all calls have.
func fanOut(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func build(srcs map[string]string, cfg Config, modOf func(dir string) (string, string)) (*Program, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		if path.Base(n) != "go.mod" {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	// Parse every file on the pool. Files join the shared FileSet in any
	// order, which is harmless: every Location field is file-relative. A
	// failure reports the first failing file in sorted order.
	fset := token.NewFileSet()
	files := make([]*parsedFile, len(names))
	errs := make([]error, len(names))
	fanOut(workers, len(names), func(i int) {
		f, err := parser.ParseFile(fset, names[i], srcs[names[i]], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			errs[i] = err
			return
		}
		files[i] = &parsedFile{name: names[i], ast: f, imports: importMap(f)}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
	}

	// Group parsed files into packages by (directory, package name).
	type key struct{ dir, pkg string }
	units := map[key]*pkgUnit{}
	var order []key
	allows := map[string]map[int][]string{}
	for _, pf := range files {
		f, name := pf.ast, pf.name
		collectAllows(fset, f, name, allows)
		k := key{path.Dir(filepath.ToSlash(name)), f.Name.Name}
		u := units[k]
		if u == nil {
			u = &pkgUnit{
				path:    derivePkgPath(k.dir, f.Name.Name, modOf),
				globals: map[string]bool{},
				funcs:   map[string]string{},
			}
			units[k] = u
			order = append(order, k)
		}
		u.files = append(u.files, pf)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dir != order[j].dir {
			return order[i].dir < order[j].dir
		}
		return order[i].pkg < order[j].pkg
	})

	// Package-scope pre-pass: globals and top-level function names must be
	// known before any body builds (files in one package see each other).
	var jobs []*unitJob
	qnames := map[string]bool{}
	for _, k := range order {
		u := units[k]
		for _, pf := range u.files {
			for _, d := range pf.ast.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || (gd.Tok != token.VAR && gd.Tok != token.CONST) {
					continue
				}
				for _, sp := range gd.Specs {
					vs, ok := sp.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, n := range vs.Names {
						if n.Name != "_" {
							u.globals[n.Name] = true
						}
					}
				}
			}
		}
		for _, pf := range u.files {
			for _, d := range pf.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				base := funcBaseName(fd)
				qname := u.path + "." + base
				// Build-tag variants of one function parse as duplicates
				// without tag evaluation; keep both, disambiguated, with the
				// first (in sorted file order) owning the plain name.
				if _, taken := u.funcs[base]; taken {
					for n := 2; qnames[qname]; n++ {
						qname = fmt.Sprintf("%s.%s~%d", u.path, base, n)
					}
				} else {
					u.funcs[base] = qname
				}
				qnames[qname] = true
				jobs = append(jobs, &unitJob{pkg: u, file: pf, decl: fd, qname: qname})
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("gofront: no function bodies in %d file(s)", len(names))
	}

	// Fan the independent per-function builds across the worker pool.
	results := make([]*unitResult, len(jobs))
	fanOut(workers, len(jobs), func(i int) { results[i] = buildUnit(fset, jobs[i]) })
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}

	return mergeUnits(results, srcs, allows, cfg)
}

func funcBaseName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName extracts the receiver's base type name, stripping pointers
// and type parameters.
func recvTypeName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "recv"
}

func importMap(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		m[name] = p
	}
	return m
}

func derivePkgPath(dir, pkgName string, modOf func(dir string) (string, string)) string {
	mod, root := modOf(dir)
	p := ""
	switch {
	case mod != "" && root != "":
		abs, err := filepath.Abs(dir)
		if err == nil {
			if rel, err := filepath.Rel(root, abs); err == nil {
				if rel == "." {
					p = mod
				} else {
					p = mod + "/" + filepath.ToSlash(rel)
				}
			}
		}
	case mod != "":
		if dir == "." {
			p = mod
		} else {
			p = mod + "/" + path.Clean(filepath.ToSlash(dir))
		}
	}
	if p == "" {
		if dir == "." || dir == "" {
			p = pkgName
		} else {
			p = path.Clean(filepath.ToSlash(dir))
		}
	}
	// An external test package (package foo_test) shares its directory with
	// package foo; keep their symbol namespaces apart.
	if strings.HasSuffix(pkgName, "_test") && !strings.HasSuffix(p, "_test") {
		p += "_test"
	}
	return p
}

func collectAllows(fset *token.FileSet, f *ast.File, file string, allows map[string]map[int][]string) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "rpqcheck:allow")
			if !ok {
				continue
			}
			line := fset.Position(c.Slash).Line
			byLine := allows[file]
			if byLine == nil {
				byLine = map[int][]string{}
				allows[file] = byLine
			}
			// Trailing prose after an em- or double-dash is commentary, not
			// check names: //rpqcheck:allow uninit-use — zero value intended
			if i := strings.IndexAny(rest, "—"); i >= 0 {
				rest = rest[:i]
			}
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = rest[:i]
			}
			names := strings.Fields(rest)
			if existing, seen := byLine[line]; seen {
				names = append(existing, names...)
			}
			byLine[line] = names
		}
	}
}

// ---- merge ----

// mergeUnits assembles the per-function results into one graph. This is
// the only sequential stage: vertex ids and interned label ids depend on
// insertion order, so the merged graph is deterministic exactly because
// units arrive in sorted-job order regardless of which worker built them.
// Vertices are numbered root first, then unit by unit: the function
// entries, then each vertex in order of first appearance in the unit's
// edges. Labels and universe names are numbered in order of first
// intern. The units' call and go sites stay on the Program for linking.
// mergeUnits consumes results: each entry is nil once merged.
func mergeUnits(results []*unitResult, srcs map[string]string, allows map[string]map[int][]string, cfg Config) (*Program, error) {
	nv, nf := 1, 0
	for _, r := range results {
		nv += len(r.verts)
		nf += len(r.funcs)
	}
	// Vertex names are distinct across units, so nv is exact. Labels and
	// symbols recur across units, so a count taken before interning
	// over-reserves (on go/... plus net/http/..., 62,999 label slots for
	// 55,415 labels and 65,725 symbol slots for 29,254 symbols): the label
	// slab and the universe grow to what is interned instead.
	g := graph.New()
	g.Grow(nv, 0)
	const root = "root"
	rv := g.Vertex(root)
	g.SetStart(rv)

	p := &Program{
		Graph:  g,
		Root:   root,
		Config: cfg,
		Funcs:  make([]FuncInfo, 0, nf),
		pos:    make([]Location, 1, nv),
		files:  srcs,
		allows: allows,
		funcIx: make(map[string]int, nf),
		ends:   make([]funcEnds, 0, nf),
	}
	var tb termBuf
	var global, lids []int32 // unit-local vertex and label id -> graph id
	for ri, r := range results {
		// A merged unit is garbage from here on: dropping it lets the
		// collector reclaim the units while the graph grows, which lowers
		// the front end's heap peak.
		results[ri] = nil
		global = slices.Grow(global[:0], len(r.verts))[:len(r.verts)]
		for i := range global {
			global[i] = -1
		}
		vertex := func(l int32) int32 {
			if v := global[l]; v >= 0 {
				return v
			}
			uv := &r.verts[l]
			v := g.Vertex(uv.name)
			global[l] = v
			if int(v) == len(p.pos) {
				p.pos = append(p.pos, uv.loc)
			} else if uv.loc.Line > 0 {
				p.pos[v] = uv.loc
			}
			return v
		}
		for i, fi := range r.funcs {
			if _, dup := p.funcIx[fi.Name]; dup {
				return nil, fmt.Errorf("gofront: duplicate function %s", fi.Name)
			}
			p.funcIx[fi.Name] = len(p.Funcs)
			p.Funcs = append(p.Funcs, fi)
			entry := vertex(r.ends[i].entry)
			g.AddEdgeID(rv, tb.intern(g, lEntry(fi.Name)), entry)
		}
		lids = lids[:0]
		for _, l := range r.labels {
			lids = append(lids, tb.intern(g, l))
		}
		for _, e := range r.edges {
			from := vertex(e.from) // before to: first-appearance numbering
			g.AddEdgeID(from, lids[e.lbl], vertex(e.to))
		}
		for _, fe := range r.ends {
			p.ends = append(p.ends, funcEnds{entry: global[fe.entry], exit: global[fe.exit]})
		}
		for _, lk := range r.links {
			lk.from = global[lk.from]
			if lk.kind == linkCall {
				lk.resume = global[lk.resume]
			}
			p.links = append(p.links, lk)
		}
	}
	if cfg.Interproc {
		p.link(g)
	}
	return p, nil
}

// termBuf holds the record of one glabel at a time. Interning copies the
// record, so one buffer serves every label of a merge.
type termBuf struct {
	rec label.Ground
}

// intern interns l's names in g's universe, the constructor and then its
// symbols left to right as label.AppendGround does, and interns its record
// in g.
func (tb *termBuf) intern(g *graph.Graph, l glabel) int32 {
	tb.rec = tb.rec[:0].App(g.U.Ctors.Intern(l.ctor), l.n)
	for _, s := range l.syms() {
		tb.rec = tb.rec.Sym(g.U.Syms.Intern(s))
	}
	return g.InternLabel(tb.rec)
}

// Linked returns the program as Load builds it with Config.Interproc (the
// supergraph of §5.2): a copy of its graph plus the call/ret/go link
// edges. It shares the program's function, position, source and
// suppression tables. A program loaded with Config.Interproc is its own
// linked form.
func (p *Program) Linked() (*Program, error) {
	if p.Config.Interproc {
		return p, nil
	}
	q := *p
	q.Graph = p.Graph.Clone()
	q.Config.Interproc = true
	q.link(q.Graph)
	return &q, nil
}

// link appends to g the link edges of every call and go site whose callee
// is an analyzed function: call to the callee's entry and ret back from its
// exit for a call, go to the entry for a go statement.
func (p *Program) link(g *graph.Graph) {
	var tb termBuf
	ids := map[glabel]int32{} // a callee's labels recur at every site
	add := func(from int32, l glabel, to int32) {
		id, ok := ids[l]
		if !ok {
			id = tb.intern(g, l)
			ids[l] = id
		}
		g.AddEdgeID(from, id, to)
	}
	for _, lk := range p.links {
		i, ok := p.funcIx[lk.callee]
		if !ok {
			continue
		}
		fe := p.ends[i]
		switch lk.kind {
		case linkCall:
			add(lk.from, lCall(lk.callee), fe.entry)
			add(fe.exit, lRet(lk.callee), lk.resume)
		case linkGo:
			add(lk.from, lGo(lk.callee), fe.entry)
		}
	}
}
