package gofront

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rpq/internal/span"
)

// This file lowers one function body to CFG edges. Each unit builds in
// isolation — it reads only the pre-pass package tables (globals, top-level
// function names, per-file imports), which are frozen before the fan-out —
// so units are safe to build on parallel workers and their output depends
// only on the AST, never on scheduling.
//
// A unit numbers its vertices and labels locally: vertices by creation,
// with one name each, and labels by first use, in a table of distinct
// values. Its edges are int32 triples over those numbers, so the merge only
// offsets vertex ids and translates the label table once per unit.

type linkKind byte

const (
	linkCall linkKind = iota
	linkGo
)

// link is a deferred interprocedural edge: resolved against the merged
// function index because the callee may live in another unit. from and
// resume are unit-local vertex ids in a unit's result and graph vertex
// ids on the Program.
type link struct {
	kind   linkKind
	from   int32  // vertex the call/go edge leaves
	resume int32  // vertex the ret edge returns to (linkCall only)
	callee string // candidate qualified name
}

// glabel is one ground edge label of the internal/cfgschema vocabulary: a
// constructor applied to at most two symbols. It is comparable, so a unit
// keys its label table by value, and the merge compiles each distinct
// label once. The zero glabel (no constructor) stands for "no label".
type glabel struct {
	ctor string
	n    int
	args [2]string
}

func lab1(ctor, x string) glabel    { return glabel{ctor: ctor, n: 1, args: [2]string{x}} }
func lab2(ctor, x, y string) glabel { return glabel{ctor: ctor, n: 2, args: [2]string{x, y}} }
func (l glabel) syms() []string     { return l.args[:l.n] }
func (l glabel) none() bool         { return l.ctor == "" }

// The schema labels gofront emits (TestLabelsMatchSchema pins what the
// fixtures lower to against internal/cfgschema).
func lNop() glabel                { return glabel{ctor: "nop"} }
func lEntry(f string) glabel      { return lab1("entry", f) }
func lExit(f string) glabel       { return lab1("exit", f) }
func lDef(x string) glabel        { return lab1("def", x) }
func lDecl(x string) glabel       { return lab1("decl", x) }
func lUse(x string) glabel        { return lab1("use", x) }
func lCall(f string) glabel       { return lab1("call", f) }
func lMCall(x, m string) glabel   { return lab2("mcall", x, m) }
func lRet(f string) glabel        { return lab1("ret", f) }
func lDeferAt(f, s string) glabel { return lab2("defer", f, s) }
func lGo(f string) glabel         { return lab1("go", f) }
func lSend(x string) glabel       { return lab1("send", x) }
func lRecv(x string) glabel       { return lab1("recv", x) }
func lClose(x string) glabel      { return lab1("close", x) }
func lLock(m string) glabel       { return lab1("lock", m) }
func lUnlock(m string) glabel     { return lab1("unlock", m) }
func lRLock(m string) glabel      { return lab1("rlock", m) }
func lRUnlock(m string) glabel    { return lab1("runlock", m) }

// uvert is one unit-local vertex: its name and, if it stands for a source
// operation, that operation's location (Line 0 otherwise).
type uvert struct {
	name string
	loc  Location
}

// uedge is one edge over unit-local vertex and label ids.
type uedge struct{ from, to, lbl int32 }

type unitResult struct {
	funcs  []FuncInfo // declared function first, then literals in source order
	ends   []funcEnds // unit-local entry and exit vertex of each of funcs
	verts  []uvert
	edges  []uedge
	labels []glabel // distinct labels in order of first use
	links  []link
	err    error
}

// funcEnds are a function's entry and exit vertices.
type funcEnds struct{ entry, exit int32 }

// deferOp is one registered defer: its effect label is re-emitted, in LIFO
// order, on every path that leaves the function after the registration.
type deferOp struct {
	eff    glabel
	callee string
	node   ast.Node
}

// noVertex marks an absent vertex: a switch or select context's continue
// target, or no fallthrough target.
const noVertex int32 = -1

// loopCtx is an enclosing for/range/switch/select statement that break (and
// for loops, continue) can target.
type loopCtx struct {
	brk, cont int32 // cont == noVertex for switch/select contexts
	label     string
}

// fnState is the per-function builder state; literals push a nested state.
type fnState struct {
	qname     string
	nv        int
	retJoin   int32
	exitV     int32
	deferred  []deferOp
	shadow    map[string]int
	loops     []loopCtx
	labels    map[string]int32 // goto/label name -> vertex
	fallNext  int32            // fallthrough target inside a switch clause
	literals  int
	deferSite int
}

// ub is a unit builder. Builders are pooled: a unit builds into the
// builder's reusable tables and leaves with exact-size copies of them.
type ub struct {
	fset *token.FileSet
	pkg  *pkgUnit
	file *parsedFile
	res  unitResult

	labelIx      map[glabel]int32 // res.labels index
	scopes       []map[string]string
	fns          []*fnState
	pendingLabel string
}

var builders = sync.Pool{New: func() any { return &ub{labelIx: map[glabel]int32{}} }}

func buildUnit(fset *token.FileSet, job *unitJob) (res *unitResult) {
	b := builders.Get().(*ub)
	defer builders.Put(b)
	b.reset(fset, job)
	defer func() {
		if r := recover(); r != nil {
			res = &unitResult{err: fmt.Errorf("gofront: internal error lowering %s: %v", job.qname, r)}
		}
	}()
	fd := job.decl
	b.buildFunc(job.qname, fd.Recv, fd.Type, fd.Body, fd.Name)
	b.propagateDefs()
	r := &b.res
	return &unitResult{
		funcs:  slices.Clone(r.funcs),
		ends:   slices.Clone(r.ends),
		verts:  slices.Clone(r.verts),
		edges:  slices.Clone(r.edges),
		labels: slices.Clone(r.labels),
		links:  slices.Clone(r.links),
	}
}

// reset empties the builder for job, keeping its tables' storage.
func (b *ub) reset(fset *token.FileSet, job *unitJob) {
	b.fset, b.pkg, b.file = fset, job.pkg, job.file
	r := &b.res
	r.funcs, r.ends, r.verts = r.funcs[:0], r.ends[:0], r.verts[:0]
	r.edges, r.labels, r.links = r.edges[:0], r.labels[:0], r.links[:0]
	clear(b.labelIx)
	for len(b.scopes) > 0 {
		b.popScope()
	}
	b.fns, b.pendingLabel = b.fns[:0], ""
}

// propagateDefs adds, beside every def(x) edge, parallel def edges for each
// longer path symbol x.f... observed in the unit: rebinding a variable
// rebinds every resource reached through it, so stale close/lock facts
// about x.f must not survive `x = fresh()`. Runs per unit (pure, after the
// body is built), so it is parallel-safe and deterministic.
func (b *ub) propagateDefs() {
	defBase := map[string]bool{}
	for _, l := range b.res.labels {
		if s, ok := defSym(l); ok {
			defBase[s] = true
		}
	}
	if len(defBase) == 0 {
		return
	}
	ext := map[string][]string{}
	seen := map[string]bool{}
	for _, l := range b.res.labels {
		for _, s := range l.syms() {
			if seen[s] {
				continue
			}
			seen[s] = true
			for i := strings.LastIndexByte(s, '.'); i > 0; i = strings.LastIndexByte(s[:i], '.') {
				if p := s[:i]; defBase[p] {
					ext[p] = append(ext[p], s)
				}
			}
		}
	}
	if len(ext) == 0 {
		return
	}
	for _, xs := range ext {
		sort.Strings(xs)
	}
	n := len(b.res.edges)
	for i := 0; i < n; i++ {
		e := b.res.edges[i]
		s, ok := defSym(b.res.labels[e.lbl])
		if !ok {
			continue
		}
		for _, x := range ext[s] {
			b.edge(e.from, lDef(x), e.to)
		}
	}
}

// defSym extracts the symbol of a plain single-argument def label.
func defSym(l glabel) (string, bool) {
	if l.ctor == "def" && l.n == 1 {
		return l.args[0], true
	}
	return "", false
}

// buildFunc lowers one function body (declaration or literal) and registers
// its FuncInfo. Caller scopes stay pushed, so literals resolve captured
// names through the enclosing function.
func (b *ub) buildFunc(qname string, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, at ast.Node) {
	entry := b.vertex(qname + ".entry")
	fn := &fnState{
		qname:    qname,
		retJoin:  b.vertex(qname + ".ret"),
		exitV:    b.vertex(qname + ".exit"),
		shadow:   map[string]int{},
		labels:   map[string]int32{},
		fallNext: noVertex,
	}
	b.fns = append(b.fns, fn)
	b.pushScope()

	loc := b.loc(at)
	b.res.verts[entry].loc = loc
	b.res.funcs = append(b.res.funcs, FuncInfo{
		Name:    qname,
		Package: b.pkg.path,
		Entry:   b.res.verts[entry].name,
		Exit:    b.res.verts[fn.exitV].name,
		Loc:     loc,
	})
	b.res.ends = append(b.res.ends, funcEnds{entry: entry, exit: fn.exitV})

	// Receiver, parameters, and named results are defined at entry: they
	// are initialized before the body runs, so they can never trip the
	// decl-without-def query.
	cur := entry
	if recv != nil {
		for _, f := range recv.List {
			for _, n := range f.Names {
				cur = b.defIdent(cur, n)
			}
		}
	}
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			for _, n := range f.Names {
				cur = b.defIdent(cur, n)
			}
		}
	}
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			for _, n := range f.Names {
				cur = b.defIdent(cur, n)
			}
		}
	}

	cur = b.stmts(cur, body.List)
	// Falling off the end runs every registered defer, then exits.
	cur = b.emitDefers(cur, len(fn.deferred))
	b.edge(cur, lNop(), fn.retJoin)
	b.edge(fn.retJoin, lExit(qname), fn.exitV)

	b.popScope()
	b.fns = b.fns[:len(b.fns)-1]
}

func (b *ub) defIdent(cur int32, n *ast.Ident) int32 {
	if n.Name == "_" {
		return cur
	}
	return b.step(cur, lDef(b.declare(n.Name)), n)
}

// ---- builder plumbing ----

func (b *ub) fn() *fnState { return b.fns[len(b.fns)-1] }

// vertex adds a unit-local vertex named name.
func (b *ub) vertex(name string) int32 {
	b.res.verts = append(b.res.verts, uvert{name: name})
	return int32(len(b.res.verts) - 1)
}

func (b *ub) fresh() int32 {
	fn := b.fn()
	fn.nv++
	return b.vertex(fn.qname + ".n" + strconv.Itoa(fn.nv))
}

func (b *ub) edge(from int32, l glabel, to int32) {
	id, ok := b.labelIx[l]
	if !ok {
		id = int32(len(b.res.labels))
		b.labelIx[l] = id
		b.res.labels = append(b.res.labels, l)
	}
	b.res.edges = append(b.res.edges, uedge{from: from, to: to, lbl: id})
}

// step adds cur -l-> fresh and records the fresh vertex's source location.
func (b *ub) step(cur int32, l glabel, at ast.Node) int32 {
	v := b.fresh()
	b.edge(cur, l, v)
	if at != nil {
		b.res.verts[v].loc = b.loc(at)
	}
	return v
}

func (b *ub) loc(n ast.Node) Location {
	pos := b.fset.Position(n.Pos())
	end := b.fset.Position(n.End())
	return Location{
		File: pos.Filename,
		Line: pos.Line,
		Col:  pos.Column,
		Span: span.Span{Start: pos.Offset, End: end.Offset},
	}
}

// pushScope opens a scope, reusing the map a popped scope left behind.
func (b *ub) pushScope() {
	n := len(b.scopes)
	b.scopes = slices.Grow(b.scopes, 1)[:n+1]
	if b.scopes[n] == nil {
		b.scopes[n] = map[string]string{}
	}
}

func (b *ub) popScope() {
	n := len(b.scopes) - 1
	clear(b.scopes[n])
	b.scopes = b.scopes[:n]
}

// declare binds name in the innermost scope to a fresh qualified symbol;
// shadowing redeclarations get #2, #3... suffixes.
func (b *ub) declare(name string) string {
	if name == "_" {
		return "_"
	}
	fn := b.fn()
	sym := fn.qname + "." + name
	if n := fn.shadow[name]; n > 0 {
		sym += "#" + strconv.Itoa(n+1)
	}
	fn.shadow[name]++
	b.scopes[len(b.scopes)-1][name] = sym
	return sym
}

// resolveVar resolves name through the lexical scope chain (including
// enclosing functions for literals), then package globals.
func (b *ub) resolveVar(name string) (string, bool) {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if sym, ok := b.scopes[i][name]; ok {
			return sym, sym != "_"
		}
	}
	if b.pkg.globals[name] {
		return b.pkg.path + "." + name, true
	}
	return "", false
}

// pathOf flattens a selector chain x.f.g rooted at a resolvable variable
// (or package global) into one qualified path symbol. Selector paths name
// resources syntactically — docs/gofront.md, "Approximations".
func (b *ub) pathOf(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if isBlank(x.Name) {
			return "", false
		}
		return b.resolveVarOK(x.Name)
	case *ast.ParenExpr:
		return b.pathOf(x.X)
	case *ast.SelectorExpr:
		base, ok := b.pathOf(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// baseIdent returns the root identifier of a selector chain (`a` in
// `a.b.c`), or false when the chain hangs off a non-identifier expression.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, !isBlank(x.Name)
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// nilableType reports whether a declared type is syntactically one whose
// zero value is nil — slice, map, chan, pointer, func, interface, or the
// error ident. Named types that happen to be nilable (io.Reader) cannot be
// known without go/types and report false.
func nilableType(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType:
		return true
	case *ast.ArrayType:
		return x.Len == nil // slice, not array
	case *ast.Ident:
		return x.Name == "error"
	case *ast.ParenExpr:
		return nilableType(x.X)
	}
	return false
}

func (b *ub) resolveVarOK(name string) (string, bool) {
	sym, ok := b.resolveVar(name)
	if !ok || sym == "_" {
		return "", false
	}
	return sym, true
}

func isBlank(name string) bool { return name == "_" }

var builtinFuncs = map[string]bool{
	"append": true, "cap": true, "clear": true, "complex": true,
	"copy": true, "delete": true, "imag": true, "len": true,
	"make": true, "max": true, "min": true, "new": true,
	"print": true, "println": true, "real": true, "recover": true,
}

// ---- statements ----

func (b *ub) stmts(cur int32, list []ast.Stmt) int32 {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *ub) stmt(cur int32, s ast.Stmt) int32 {
	switch x := s.(type) {
	case nil:
		return cur
	case *ast.BlockStmt:
		b.pushScope()
		cur = b.stmts(cur, x.List)
		b.popScope()
		return cur
	case *ast.EmptyStmt:
		return cur
	case *ast.ExprStmt:
		return b.expr(cur, x.X)
	case *ast.AssignStmt:
		return b.assign(cur, x)
	case *ast.IncDecStmt:
		// x++ both reads and writes, but emitting the read would flag every
		// zero-value accumulator; the write is what dataflow queries need.
		if p, ok := b.pathOf(x.X); ok {
			return b.step(cur, lDef(p), x)
		}
		return b.expr(cur, x.X)
	case *ast.DeclStmt:
		return b.declStmt(cur, x)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			cur = b.expr(cur, r)
		}
		cur = b.emitDefers(cur, len(b.fn().deferred))
		b.edge(cur, lNop(), b.fn().retJoin)
		return b.fresh() // anything after a return is unreachable
	case *ast.IfStmt:
		return b.ifStmt(cur, x)
	case *ast.ForStmt:
		return b.forStmt(cur, x, b.takeLabel())
	case *ast.RangeStmt:
		return b.rangeStmt(cur, x, b.takeLabel())
	case *ast.SwitchStmt:
		return b.switchStmt(cur, x, b.takeLabel())
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(cur, x, b.takeLabel())
	case *ast.SelectStmt:
		return b.selectStmt(cur, x, b.takeLabel())
	case *ast.SendStmt:
		cur = b.expr(cur, x.Value)
		if p, ok := b.pathOf(x.Chan); ok {
			cur = b.step(cur, lUse(p), x.Chan)
			return b.step(cur, lSend(p), x)
		}
		return b.expr(cur, x.Chan)
	case *ast.GoStmt:
		return b.goStmt(cur, x)
	case *ast.DeferStmt:
		return b.deferStmt(cur, x)
	case *ast.BranchStmt:
		return b.branch(cur, x)
	case *ast.LabeledStmt:
		return b.labeled(cur, x)
	}
	// Unhandled statement forms contribute no labels.
	return cur
}

// takeLabel consumes the pending statement label set by labeled(), so a
// labeled loop registers under its label for break/continue targeting.
func (b *ub) takeLabel() string {
	lbl := b.pendingLabel
	b.pendingLabel = ""
	return lbl
}

func (b *ub) labeled(cur int32, x *ast.LabeledStmt) int32 {
	v := b.labelVertex(x.Label.Name)
	b.edge(cur, lNop(), v)
	b.pendingLabel = x.Label.Name
	out := b.stmt(v, x.Stmt)
	b.pendingLabel = ""
	return out
}

func (b *ub) labelVertex(name string) int32 {
	fn := b.fn()
	if v, ok := fn.labels[name]; ok {
		return v
	}
	v := b.fresh()
	fn.labels[name] = v
	return v
}

func (b *ub) branch(cur int32, x *ast.BranchStmt) int32 {
	fn := b.fn()
	name := ""
	if x.Label != nil {
		name = x.Label.Name
	}
	switch x.Tok {
	case token.GOTO:
		b.edge(cur, lNop(), b.labelVertex(name))
		return b.fresh()
	case token.FALLTHROUGH:
		if fn.fallNext != noVertex {
			b.edge(cur, lNop(), fn.fallNext)
		}
		return b.fresh()
	case token.BREAK:
		for i := len(fn.loops) - 1; i >= 0; i-- {
			if name == "" || fn.loops[i].label == name {
				b.edge(cur, lNop(), fn.loops[i].brk)
				return b.fresh()
			}
		}
	case token.CONTINUE:
		for i := len(fn.loops) - 1; i >= 0; i-- {
			if fn.loops[i].cont != noVertex && (name == "" || fn.loops[i].label == name) {
				b.edge(cur, lNop(), fn.loops[i].cont)
				return b.fresh()
			}
		}
	}
	return b.fresh()
}

func (b *ub) declStmt(cur int32, x *ast.DeclStmt) int32 {
	gd, ok := x.Decl.(*ast.GenDecl)
	if !ok {
		return cur
	}
	switch gd.Tok {
	case token.VAR:
		for _, sp := range gd.Specs {
			vs, ok := sp.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				cur = b.expr(cur, v)
			}
			for _, n := range vs.Names {
				if n.Name == "_" {
					continue
				}
				sym := b.declare(n.Name)
				if len(vs.Values) == 0 {
					if nilableType(vs.Type) {
						// `var x []T` / map / chan / *T / func / interface /
						// error: the nil zero value is a meaningful initial
						// value (append and nil-guard idioms), so count the
						// declaration as a definition.
						cur = b.step(cur, lDef(sym), n)
					} else {
						// `var x T`: declared but not initialized — the
						// decl(x) label is what uninit-use anchors on.
						cur = b.step(cur, lDecl(sym), n)
					}
				} else {
					cur = b.step(cur, lDef(sym), n)
				}
			}
		}
	case token.CONST:
		for _, sp := range gd.Specs {
			vs, ok := sp.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, n := range vs.Names {
				if n.Name == "_" {
					continue
				}
				cur = b.step(cur, lDef(b.declare(n.Name)), n)
			}
		}
	}
	return cur
}

func (b *ub) assign(cur int32, x *ast.AssignStmt) int32 {
	if c, ok := selfAppend(x); ok {
		// x = append(x, ...) grows x in place: the self-referential read
		// is bookkeeping, not a value use, so only the added elements are
		// evaluated.
		for _, a := range c.Args[1:] {
			cur = b.expr(cur, a)
		}
	} else {
		for _, r := range x.Rhs {
			cur = b.expr(cur, r)
		}
	}
	switch x.Tok {
	case token.DEFINE:
		for _, l := range x.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			// := redeclares a name already bound in the innermost scope
			// (the `x, err := ...; y, err := ...` idiom) rather than
			// shadowing it.
			sym, exists := b.scopes[len(b.scopes)-1][id.Name]
			if !exists {
				sym = b.declare(id.Name)
			}
			if sym == "_" {
				continue
			}
			cur = b.step(cur, lDef(sym), id)
		}
	case token.ASSIGN:
		for _, l := range x.Lhs {
			cur = b.assignTo(cur, l)
		}
	default:
		// Augmented assignment (+=, -=, ...): write-only, like IncDecStmt.
		for _, l := range x.Lhs {
			cur = b.assignTo(cur, l)
		}
	}
	return cur
}

// selfAppend recognizes `x = append(x, ...)` (and the := form): one ident
// LHS, one append call RHS whose first argument is the same identifier.
func selfAppend(x *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := x.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	c, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
	if !ok || len(c.Args) == 0 {
		return nil, false
	}
	f, ok := c.Fun.(*ast.Ident)
	if !ok || f.Name != "append" {
		return nil, false
	}
	a0, ok := ast.Unparen(c.Args[0]).(*ast.Ident)
	return c, ok && a0.Name == lhs.Name
}

func (b *ub) assignTo(cur int32, l ast.Expr) int32 {
	switch t := l.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return cur
		}
		if sym, ok := b.resolveVarOK(t.Name); ok {
			return b.step(cur, lDef(sym), t)
		}
		return cur
	case *ast.SelectorExpr:
		if p, ok := b.pathOf(t); ok {
			cur = b.step(cur, lDef(p), t)
			// A field write also (partially) initializes the aggregate:
			// `hr.fam = v` after `var hr hrow` counts as defining hr.
			if base, ok := baseIdent(t); ok {
				if sym, ok := b.resolveVarOK(base.Name); ok {
					cur = b.step(cur, lDef(sym), t)
				}
			}
			return cur
		}
		return b.expr(cur, t.X)
	case *ast.IndexExpr:
		// a[i] = v reads a and i; it does not redefine a.
		cur = b.expr(cur, t.X)
		return b.expr(cur, t.Index)
	case *ast.StarExpr:
		// *p = v reads the pointer.
		return b.expr(cur, t.X)
	case *ast.ParenExpr:
		return b.assignTo(cur, t.X)
	}
	return cur
}

func (b *ub) ifStmt(cur int32, x *ast.IfStmt) int32 {
	b.pushScope()
	cur = b.stmt(cur, x.Init)
	cur = b.expr(cur, x.Cond)
	thenEnd := b.stmt(cur, x.Body)
	elseEnd := cur
	if x.Else != nil {
		elseEnd = b.stmt(cur, x.Else)
	}
	join := b.fresh()
	b.edge(thenEnd, lNop(), join)
	b.edge(elseEnd, lNop(), join)
	b.popScope()
	return join
}

func (b *ub) forStmt(cur int32, x *ast.ForStmt, lbl string) int32 {
	fn := b.fn()
	b.pushScope()
	cur = b.stmt(cur, x.Init)
	head := b.step(cur, lNop(), nil)
	cond := head
	if x.Cond != nil {
		cond = b.expr(head, x.Cond)
	}
	brk, cont := b.fresh(), b.fresh()
	fn.loops = append(fn.loops, loopCtx{brk: brk, cont: cont, label: lbl})
	bodyEnd := b.stmt(cond, x.Body)
	fn.loops = fn.loops[:len(fn.loops)-1]
	b.edge(bodyEnd, lNop(), cont)
	postEnd := b.stmt(cont, x.Post)
	b.edge(postEnd, lNop(), head)
	if x.Cond != nil {
		b.edge(cond, lNop(), brk)
	}
	b.popScope()
	return brk
}

func (b *ub) rangeStmt(cur int32, x *ast.RangeStmt, lbl string) int32 {
	fn := b.fn()
	b.pushScope()
	cur = b.expr(cur, x.X)
	head := b.step(cur, lNop(), nil)
	iter := head
	bindRange := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			if p, ok := b.pathOf(e); ok && x.Tok == token.ASSIGN {
				iter = b.step(iter, lDef(p), e)
			}
			return
		}
		var sym string
		if x.Tok == token.DEFINE {
			sym = b.declare(id.Name)
		} else if s, ok := b.resolveVarOK(id.Name); ok {
			sym = s
		} else {
			return
		}
		iter = b.step(iter, lDef(sym), id)
	}
	if x.Key != nil {
		bindRange(x.Key)
	}
	if x.Value != nil {
		bindRange(x.Value)
	}
	brk, cont := b.fresh(), b.fresh()
	fn.loops = append(fn.loops, loopCtx{brk: brk, cont: cont, label: lbl})
	bodyEnd := b.stmt(iter, x.Body)
	fn.loops = fn.loops[:len(fn.loops)-1]
	b.edge(bodyEnd, lNop(), cont)
	b.edge(cont, lNop(), head)
	b.edge(head, lNop(), brk) // empty range / iteration complete
	b.popScope()
	return brk
}

func (b *ub) switchStmt(cur int32, x *ast.SwitchStmt, lbl string) int32 {
	fn := b.fn()
	b.pushScope()
	cur = b.stmt(cur, x.Init)
	if x.Tag != nil {
		cur = b.expr(cur, x.Tag)
	}
	join := b.fresh()
	clauses := clauseList(x.Body)
	starts := make([]int32, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		starts[i] = b.fresh()
		b.edge(cur, lNop(), starts[i])
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(cur, lNop(), join)
	}
	fn.loops = append(fn.loops, loopCtx{brk: join, cont: noVertex, label: lbl})
	for i, cc := range clauses {
		b.pushScope()
		c := starts[i]
		for _, e := range cc.List {
			c = b.expr(c, e)
		}
		prevFall := fn.fallNext
		if i+1 < len(clauses) {
			fn.fallNext = starts[i+1]
		} else {
			fn.fallNext = noVertex
		}
		end := b.stmts(c, cc.Body)
		fn.fallNext = prevFall
		b.edge(end, lNop(), join)
		b.popScope()
	}
	fn.loops = fn.loops[:len(fn.loops)-1]
	b.popScope()
	return join
}

func (b *ub) typeSwitchStmt(cur int32, x *ast.TypeSwitchStmt, lbl string) int32 {
	fn := b.fn()
	b.pushScope()
	cur = b.stmt(cur, x.Init)
	bind := ""
	switch a := x.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			cur = b.expr(cur, ta.X)
		}
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				cur = b.expr(cur, ta.X)
			}
		}
		if len(a.Lhs) == 1 {
			if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				bind = id.Name
			}
		}
	}
	join := b.fresh()
	clauses := clauseList(x.Body)
	hasDefault := false
	fn.loops = append(fn.loops, loopCtx{brk: join, cont: noVertex, label: lbl})
	for _, cc := range clauses {
		if len(cc.List) == 0 {
			hasDefault = true
		}
		b.pushScope()
		c := b.step(cur, lNop(), nil)
		if bind != "" {
			// Each clause binds its own typed copy of the switch variable.
			c = b.step(c, lDef(b.declare(bind)), x.Assign)
		}
		end := b.stmts(c, cc.Body)
		b.edge(end, lNop(), join)
		b.popScope()
	}
	fn.loops = fn.loops[:len(fn.loops)-1]
	if !hasDefault {
		b.edge(cur, lNop(), join)
	}
	b.popScope()
	return join
}

func (b *ub) selectStmt(cur int32, x *ast.SelectStmt, lbl string) int32 {
	fn := b.fn()
	join := b.fresh()
	fn.loops = append(fn.loops, loopCtx{brk: join, cont: noVertex, label: lbl})
	for _, s := range x.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		b.pushScope()
		c := b.step(cur, lNop(), nil)
		c = b.stmt(c, cc.Comm)
		end := b.stmts(c, cc.Body)
		b.edge(end, lNop(), join)
		b.popScope()
	}
	fn.loops = fn.loops[:len(fn.loops)-1]
	if len(x.Body.List) == 0 {
		b.edge(cur, lNop(), join)
	}
	return join
}

func clauseList(body *ast.BlockStmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, 0, len(body.List))
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

// ---- defer / go ----

// emitDefers re-emits the first n registered defers in LIFO order. Each
// return statement emits the defers registered *before it in the walk*, so
// an early return does not run a defer registered further down — that is
// exactly the unlock-without-lock shape the checks must not invent.
func (b *ub) emitDefers(cur int32, n int) int32 {
	fn := b.fn()
	for i := n - 1; i >= 0; i-- {
		op := fn.deferred[i]
		prev := cur
		cur = b.step(cur, op.eff, op.node)
		if op.callee != "" {
			b.res.links = append(b.res.links, link{kind: linkCall, from: prev, resume: cur, callee: op.callee})
		}
	}
	return cur
}

func (b *ub) deferStmt(cur int32, x *ast.DeferStmt) int32 {
	fn := b.fn()
	cur, eff, callee := b.callEffect(cur, x.Call)
	if eff.none() {
		// Deferring a fully-absorbed builtin (defer println(...)) — the
		// registration still marks the site.
		eff = lNop()
	}
	fn.deferSite++
	site := fn.qname + ".d" + strconv.Itoa(fn.deferSite)
	desc := callee
	if desc == "" {
		desc = effectDesc(eff)
	}
	cur = b.step(cur, lDeferAt(desc, site), x)
	fn.deferred = append(fn.deferred, deferOp{eff: eff, callee: callee, node: x})
	return cur
}

func (b *ub) goStmt(cur int32, x *ast.GoStmt) int32 {
	prev := cur
	cur, eff, callee := b.callEffect(cur, x.Call)
	desc := callee
	if desc == "" {
		if eff.none() {
			eff = lNop()
		}
		desc = effectDesc(eff)
	}
	cur = b.step(cur, lGo(desc), x)
	if callee != "" {
		b.res.links = append(b.res.links, link{kind: linkGo, from: prev, callee: callee})
	}
	return cur
}

// effectDesc names a deferred/launched operation for the defer(f,s) and
// go(f) labels when the callee is not a known function: close:pkg.f.x,
// mcall:pkg.f.x.Done, call:cancel.
func effectDesc(eff glabel) string {
	d := eff.ctor
	for _, a := range eff.syms() {
		d += ":" + a
	}
	return d
}

// ---- expressions ----

func (b *ub) expr(cur int32, e ast.Expr) int32 {
	switch x := e.(type) {
	case nil:
		return cur
	case *ast.Ident:
		if sym, ok := b.resolveVarOK(x.Name); ok {
			return b.step(cur, lUse(sym), x)
		}
		return cur
	case *ast.BasicLit, *ast.Ellipsis:
		return cur
	case *ast.ParenExpr:
		return b.expr(cur, x.X)
	case *ast.SelectorExpr:
		if p, ok := b.pathOf(x); ok {
			return b.step(cur, lUse(p), x)
		}
		// Package selector (os.Stdout) or chained expression (f().field).
		if _, isImport := b.importOf(x.X); isImport {
			return cur
		}
		return b.expr(cur, x.X)
	case *ast.StarExpr:
		return b.expr(cur, x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			// &x escapes x; without alias tracking the only safe reading is
			// that x may be initialized through the pointer.
			if p, ok := b.pathOf(x.X); ok {
				return b.step(cur, lDef(p), x)
			}
			return b.expr(cur, x.X)
		case token.ARROW:
			if p, ok := b.pathOf(x.X); ok {
				cur = b.step(cur, lUse(p), x.X)
				return b.step(cur, lRecv(p), x)
			}
			return b.expr(cur, x.X)
		default:
			return b.expr(cur, x.X)
		}
	case *ast.BinaryExpr:
		cur = b.expr(cur, x.X)
		return b.expr(cur, x.Y)
	case *ast.CallExpr:
		cur, eff, callee := b.callEffect(cur, x)
		if eff.none() {
			return cur
		}
		prev := cur
		cur = b.step(cur, eff, x)
		if callee != "" && eff.ctor == "call" {
			b.res.links = append(b.res.links, link{kind: linkCall, from: prev, resume: cur, callee: callee})
		}
		return cur
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			cur = b.expr(cur, el)
		}
		return cur
	case *ast.KeyValueExpr:
		// Struct-literal keys are field names, not variable reads.
		if _, isIdent := x.Key.(*ast.Ident); !isIdent {
			cur = b.expr(cur, x.Key)
		}
		return b.expr(cur, x.Value)
	case *ast.IndexExpr:
		cur = b.expr(cur, x.X)
		return b.expr(cur, x.Index)
	case *ast.IndexListExpr:
		return b.expr(cur, x.X)
	case *ast.SliceExpr:
		cur = b.expr(cur, x.X)
		cur = b.expr(cur, x.Low)
		cur = b.expr(cur, x.High)
		return b.expr(cur, x.Max)
	case *ast.TypeAssertExpr:
		return b.expr(cur, x.X)
	case *ast.FuncLit:
		b.buildLiteral(x)
		return cur
	}
	return cur
}

// buildLiteral lowers a function literal as a sibling function named
// parent.funcN. It is linked from the synthetic root like every function;
// when the literal is directly called, launched, or deferred, the caller
// also gets an interprocedural link to it.
func (b *ub) buildLiteral(x *ast.FuncLit) string {
	fn := b.fn()
	fn.literals++
	qname := fn.qname + ".func" + strconv.Itoa(fn.literals)
	b.buildFunc(qname, nil, x.Type, x.Body, x)
	return qname
}

// importOf reports whether an expression is a bare import-package name.
func (b *ub) importOf(e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, shadowed := b.resolveVar(id.Name); shadowed {
		return "", false
	}
	p, ok := b.file.imports[id.Name]
	return p, ok
}

// callEffect evaluates a call's arguments and receiver and classifies the
// call into its effect label. It returns the new current vertex, the
// effect term (nil when the call is fully absorbed, e.g. len()), and the
// qualified callee candidate for interprocedural linking ("" if unknown).
// The caller decides whether to emit the effect as a plain step (normal
// call), re-emit it later (defer), or pair it with a go label.
func (b *ub) callEffect(cur int32, call *ast.CallExpr) (int32, glabel, string) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) — classify the underlying callee.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := b.pathOf(ix.X); !ok {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	evalArgs := func(c int32) int32 {
		for _, a := range call.Args {
			c = b.expr(c, a)
		}
		return c
	}

	switch f := fun.(type) {
	case *ast.FuncLit:
		qname := b.buildLiteral(f)
		cur = evalArgs(cur)
		return cur, lCall(qname), qname

	case *ast.Ident:
		if _, isVar := b.resolveVarOK(f.Name); isVar {
			// Calling a local function value: read it, then call it.
			sym, _ := b.resolveVarOK(f.Name)
			cur = b.step(cur, lUse(sym), f)
			cur = evalArgs(cur)
			return cur, lCall(sym), ""
		}
		switch f.Name {
		case "close":
			if len(call.Args) == 1 {
				if p, ok := b.pathOf(call.Args[0]); ok {
					return cur, lClose(p), ""
				}
			}
			return evalArgs(cur), glabel{}, ""
		case "panic":
			// panic unwinds through the registered defers and leaves the
			// function.
			cur = evalArgs(cur)
			cur = b.step(cur, lCall("panic"), call)
			cur = b.emitDefers(cur, len(b.fn().deferred))
			b.edge(cur, lNop(), b.fn().retJoin)
			return b.fresh(), glabel{}, ""
		}
		if builtinFuncs[f.Name] {
			if (f.Name == "len" || f.Name == "cap") && len(call.Args) == 1 {
				if _, ok := b.pathOf(ast.Unparen(call.Args[0])); ok {
					// len/cap read only the descriptor and are safe on zero
					// values of every type they accept, so they do not count
					// as value uses.
					return cur, glabel{}, ""
				}
			}
			return evalArgs(cur), glabel{}, ""
		}
		if qname, ok := b.pkg.funcs[f.Name]; ok {
			cur = evalArgs(cur)
			return cur, lCall(qname), qname
		}
		// Unknown identifier (dot import, predeclared conversion, ...).
		cur = evalArgs(cur)
		return cur, lCall(f.Name), ""

	case *ast.SelectorExpr:
		if impPath, ok := b.importOf(f.X); ok {
			qn := impPath + "." + f.Sel.Name
			cur = evalArgs(cur)
			if qn == "os.Exit" || qn == "runtime.Goexit" {
				// No fallthrough: control does not continue past these.
				c := b.step(cur, lCall(qn), call)
				if qn == "runtime.Goexit" {
					c = b.emitDefers(c, len(b.fn().deferred))
				}
				b.edge(c, lNop(), b.fn().retJoin)
				return b.fresh(), glabel{}, ""
			}
			return cur, lCall(qn), qn
		}
		if p, ok := b.pathOf(f.X); ok {
			// Method call on a resolvable receiver path.
			cur = evalArgs(cur)
			if len(call.Args) == 0 {
				switch f.Sel.Name {
				case "Close":
					return cur, lClose(p), ""
				case "Lock":
					return cur, lLock(p), ""
				case "Unlock":
					return cur, lUnlock(p), ""
				case "RLock":
					return cur, lRLock(p), ""
				case "RUnlock":
					return cur, lRUnlock(p), ""
				}
			}
			return cur, lMCall(p, f.Sel.Name), ""
		}
		// Chained call (f().g(...)) or method value on a complex base:
		// evaluate the base for its effects, then an unlinked call.
		cur = b.expr(cur, f.X)
		cur = evalArgs(cur)
		return cur, lCall(f.Sel.Name), ""
	}

	// Conversions (T(x), []byte(s)) and anything else: effects of operands.
	cur = b.expr(cur, fun)
	cur = evalArgs(cur)
	return cur, glabel{}, ""
}
