// Package passinfo is a repo-local vet pass: it checks that every pass
// registered with core.Describe declares, in its PassInfo, the environment
// metric/attribute keys its body actually reads and writes. The planner
// proves fusion legal from those declarations alone (disjoint Reads/Writes
// ⇒ interleaving is safe), so an undeclared access silently breaks the
// proof: two passes could fuse even though one writes what the other
// reads. This checker turns that contract into CI.
//
// It is built on go/parser and go/ast only — the sandbox has no
// golang.org/x/tools, so this is not a go/analysis Analyzer driven by `go
// vet -vettool`; it is a standalone syntactic checker with a one-level
// deliberate design:
//
//   - For each Describe(pass, PassInfo{...}) call it collects the declared
//     Reads/Writes entries as printed expressions ("*" is a wildcard, and
//     NewEnv exempts writes — they land in a derived environment).
//   - It then walks the pass expression for key accesses — Metric/Attr/Vec,
//     their Lookup* forms, the Vertex/EdgeMetricColumn reads and the
//     Metric/Attr/VecColumn handles read, SetMetric/SetAttr/SetVec/
//     AddMetric/AddVecAt and the Writable* columns write, and the Each*/Num*
//     enumerations read every key ("*") — following calls to
//     same-package top-level functions transitively, and including the
//     methods of any kernel type the Scan field constructs.
//   - An accessed key is covered when its printed expression matches a
//     declared entry exactly. Spurious extra declarations are allowed
//     (they only make the planner more conservative, never wrong).
//
// Purely syntactic means purely honest about limits: keys flowing through
// interfaces or cross-package helpers are invisible. The pass library
// keeps its accesses first-order, and the checker keeps it that way.
package passinfo

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"sort"
	"strings"
)

// Finding is one undeclared access.
type Finding struct {
	Pos  token.Position
	Pass string // pass name if determinable, else the enclosing function
	Kind string // "read" or "write"
	Key  string // printed key expression
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: pass %s: %s of key %s is not declared in PassInfo", f.Pos, f.Pass, f.Kind, f.Key)
}

var (
	readMethods = map[string]bool{
		"Metric": true, "Attr": true, "Vec": true,
		"LookupMetric": true, "LookupAttr": true, "LookupVec": true,
		"VertexMetricColumn": true, "EdgeMetricColumn": true,
		"MetricColumn": true, "AttrColumn": true, "VecColumn": true,
	}
	writeMethods = map[string]bool{
		"SetMetric": true, "SetAttr": true, "SetVec": true,
		"AddMetric": true, "AddVecAt": true,
		"WritableVertexMetric": true, "WritableVertexVec": true,
	}
	// readAllMethods enumerate every key an element has, so they read "*".
	readAllMethods = map[string]bool{
		"EachMetric": true, "EachAttr": true, "EachVec": true,
		"NumMetrics": true, "NumAttrs": true, "NumVecs": true,
	}
)

// CheckDir parses every non-test Go file in dir (one package expected) and
// returns the undeclared accesses, sorted by position.
func CheckDir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		c := &checker{fset: fset, funcs: map[string]*ast.FuncDecl{}, methods: map[string][]*ast.FuncDecl{}}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fd.Recv == nil {
					c.funcs[fd.Name.Name] = fd
				} else if rt := recvTypeName(fd.Recv); rt != "" {
					c.methods[rt] = append(c.methods[rt], fd)
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isDescribeCall(call) || len(call.Args) != 2 {
					return true
				}
				info, ok := call.Args[1].(*ast.CompositeLit)
				if !ok {
					return true
				}
				findings = append(findings, c.checkDescribe(call.Args[0], info)...)
				return true
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Key < b.Key
	})
	return findings, nil
}

type checker struct {
	fset    *token.FileSet
	funcs   map[string]*ast.FuncDecl   // top-level functions by name
	methods map[string][]*ast.FuncDecl // methods by receiver type name
}

// checkDescribe verifies one Describe(pass, PassInfo{...}) call.
func (c *checker) checkDescribe(passExpr ast.Expr, info *ast.CompositeLit) []Finding {
	reads := map[string]bool{}
	writes := map[string]bool{}
	newEnv := false
	var scanExpr ast.Expr
	for _, el := range info.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Reads":
			c.collectKeys(kv.Value, reads)
		case "Writes":
			c.collectKeys(kv.Value, writes)
		case "NewEnv":
			if id, ok := kv.Value.(*ast.Ident); ok && id.Name == "true" {
				newEnv = true
			}
		case "Scan":
			scanExpr = kv.Value
		}
	}

	passName := c.passName(passExpr)
	var findings []Finding
	report := func(kind, key string, pos token.Pos) {
		findings = append(findings, Finding{
			Pos: c.fset.Position(pos), Pass: passName, Kind: kind, Key: key,
		})
	}

	seen := map[string]bool{} // visited function/method names, cycle guard
	var visit func(n ast.Node, sc *scope)
	checkAccess := func(call *ast.CallExpr, sc *scope) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		name := sel.Sel.Name
		if readAllMethods[name] {
			if !reads["\"*\""] {
				report("read", "\"*\"", call.Pos())
			}
			return
		}
		if len(call.Args) == 0 {
			return
		}
		isRead, isWrite := readMethods[name], writeMethods[name]
		if !isRead && !isWrite {
			return
		}
		key, closed := c.subst(call.Args[0], sc)
		if !closed {
			// The key flows in through a channel the checker cannot see
			// (an unbound parameter, a method call on another package's
			// value). Silence beats a false alarm; the pass library keeps
			// its keys first-order exactly so this stays rare.
			return
		}
		switch {
		case isRead && !reads["\"*\""] && !reads[key]:
			report("read", key, call.Args[0].Pos())
		case isWrite && !newEnv && !writes["\"*\""] && !writes[key]:
			report("write", key, call.Args[0].Pos())
		}
	}
	visit = func(n ast.Node, sc *scope) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.AssignStmt:
				// Track simple single assignments so derived keys
				// (vecKey := metric + "_vec") stay resolvable.
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					if id, ok := x.Lhs[0].(*ast.Ident); ok {
						if v, closed := c.subst(x.Rhs[0], sc); closed {
							sc.bind(id.Name, v)
						} else {
							sc.open(id.Name)
						}
					}
				}
			case *ast.CallExpr:
				checkAccess(x, sc)
				// Follow same-package top-level callees, substituting
				// arguments for parameters.
				if id, ok := x.Fun.(*ast.Ident); ok {
					if fd := c.funcs[id.Name]; fd != nil && !seen[id.Name] {
						seen[id.Name] = true
						visit(fd.Body, c.funcScope(fd, x.Args, sc))
					}
				}
			case *ast.CompositeLit:
				// A kernel constructed in scope pulls in that type's
				// methods (Visit/Finish run under the fused loop), with
				// the literal's field values bound to the receiver's
				// fields.
				if tn := litTypeName(x); tn != "" && c.methods[tn] != nil && !seen["type:"+tn] {
					seen["type:"+tn] = true
					fields := c.litFields(x, sc)
					for _, md := range c.methods[tn] {
						visit(md.Body, c.methodScope(md, fields))
					}
				}
			}
			return true
		})
	}
	visit(passExpr, newScope(nil))
	if scanExpr != nil {
		visit(scanExpr, newScope(nil))
	}
	return findings
}

// scope resolves identifiers while walking one function: package-level
// names are closed (they print as themselves), locals are open unless a
// binding maps them to a call-site expression.
type scope struct {
	bindings map[string]string // local name -> substituted rendering
	opens    map[string]bool   // local name known but unresolvable
	fields   map[string]string // receiver field name -> rendering (methods)
	recv     string            // receiver identifier (methods)
}

func newScope(fields map[string]string) *scope {
	return &scope{bindings: map[string]string{}, opens: map[string]bool{}, fields: fields}
}

func (sc *scope) bind(name, v string) { sc.bindings[name] = v }
func (sc *scope) open(name string)    { sc.opens[name] = true }

// funcScope builds the callee scope of a followed call: parameters bound
// to substituted arguments when resolvable, open otherwise.
func (c *checker) funcScope(fd *ast.FuncDecl, args []ast.Expr, caller *scope) *scope {
	sc := newScope(nil)
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if i < len(args) {
				if v, closed := c.subst(args[i], caller); closed {
					sc.bind(name.Name, v)
				} else {
					sc.open(name.Name)
				}
			} else {
				sc.open(name.Name)
			}
			i++
		}
	}
	return sc
}

// methodScope builds a kernel method's scope: receiver fields bound to the
// composite literal's values, parameters open.
func (c *checker) methodScope(md *ast.FuncDecl, fields map[string]string) *scope {
	sc := newScope(fields)
	if len(md.Recv.List) > 0 && len(md.Recv.List[0].Names) > 0 {
		sc.recv = md.Recv.List[0].Names[0].Name
	}
	if md.Type.Params != nil {
		for _, field := range md.Type.Params.List {
			for _, name := range field.Names {
				sc.open(name.Name)
			}
		}
	}
	return sc
}

// litFields substitutes a composite literal's keyed field values.
func (c *checker) litFields(cl *ast.CompositeLit, sc *scope) map[string]string {
	out := map[string]string{}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if v, closed := c.subst(kv.Value, sc); closed {
			out[key.Name] = v
		}
	}
	return out
}

// subst renders an expression with scope substitution applied, reporting
// whether every identifier resolved (closed). String literals and
// package-level names are closed; unresolved locals are open.
func (c *checker) subst(e ast.Expr, sc *scope) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Value, true
	case *ast.Ident:
		if v, ok := sc.bindings[x.Name]; ok {
			return v, true
		}
		if sc.opens[x.Name] {
			return x.Name, false
		}
		return x.Name, true // package-level name, prints as itself
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if sc.recv != "" && id.Name == sc.recv {
				if v, ok := sc.fields[x.Sel.Name]; ok {
					return v, true
				}
				return c.render(e), false // unbound receiver field
			}
			if !sc.opens[id.Name] {
				return c.render(e), true // pkg.Const selector
			}
		}
		return c.render(e), false
	case *ast.BinaryExpr:
		l, lok := c.subst(x.X, sc)
		r, rok := c.subst(x.Y, sc)
		return l + " " + x.Op.String() + " " + r, lok && rok
	case *ast.ParenExpr:
		return c.subst(x.X, sc)
	}
	return c.render(e), false
}

// collectKeys records the printed form of each element of a Reads/Writes
// slice literal. A non-literal value (a variable holding the whole slice)
// is recorded as a wildcard: the checker cannot see inside it.
func (c *checker) collectKeys(v ast.Expr, into map[string]bool) {
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		into["\"*\""] = true
		return
	}
	for _, el := range lit.Elts {
		into[c.render(el)] = true
	}
}

// render prints an expression in canonical gofmt form, the comparison key
// for declared-vs-accessed matching.
func (c *checker) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, c.fset, e); err != nil {
		return fmt.Sprintf("<unprintable:%v>", err)
	}
	return buf.String()
}

// passName digs the PassName field out of a PassFunc literal, falling back
// to the printed pass expression's head.
func (c *checker) passName(e ast.Expr) string {
	var name string
	ast.Inspect(e, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok || name != "" {
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "PassName" {
			if bl, ok := kv.Value.(*ast.BasicLit); ok {
				name = strings.Trim(bl.Value, `"`)
			}
		}
		return true
	})
	if name != "" {
		return name
	}
	head := c.render(e)
	if i := strings.IndexByte(head, '{'); i > 0 {
		head = head[:i]
	}
	if len(head) > 40 {
		head = head[:40] + "..."
	}
	return head
}

func isDescribeCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "Describe"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Describe"
	}
	return false
}

func recvTypeName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func litTypeName(cl *ast.CompositeLit) string {
	switch t := cl.Type.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}
