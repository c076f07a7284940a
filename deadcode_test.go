// Package repro holds the module-wide checks that belong to no single
// package.
package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAllowed names the declarations the gate tolerates without a
// caller, each with the ROADMAP item that wires it in. An entry naming a
// type also covers its methods. An entry that no longer matches a
// declaration without a caller fails the gate until it is removed.
var deadAllowed = map[string]string{
	"compress.Block3D":  "ROADMAP item 9",
	"compress.FieldRMS": "ROADMAP item 9",
}

// TestEveryDeclarationHasACaller enforces the rule that code with no
// caller outside its own tests is wired in or removed. It type-checks
// every package of the module, with and without its tests, and fails on
// any package-level func, method, type, var or const under internal/ or
// cmd/ that only its own package's _test.go files use, or nothing uses.
//
// Callers are non-test code anywhere in the module (benchmark/ and
// examples/ included) and the tests of other packages. A method also
// counts as called when its type satisfies an interface the program
// declares or imports, the way container/heap calls Len and Less. A
// declaration's references to itself, and a method's receiver type, are
// not uses.
func TestEveryDeclarationHasACaller(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	var lines []string
	for _, d := range m.dead() {
		if _, ok := deadAllowed[d.name]; ok {
			allowed[d.name] = true
			continue
		}
		if _, ok := deadAllowed[d.recv]; ok {
			allowed[d.recv] = true
			continue
		}
		pos := m.fset.Position(d.pos)
		line := fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, d.name)
		if d.ownTests {
			line += " (own tests only)"
		}
		lines = append(lines, line)
	}
	if len(lines) > 0 {
		t.Errorf("%d declarations have no caller outside their own package's tests; "+
			"delete them, move them into a _test.go file, or wire them in:\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	for name, item := range deadAllowed {
		if !allowed[name] {
			t.Errorf("deadAllowed entry %s (%s) has a caller or no longer exists; remove the entry", name, item)
		}
	}
}

// unit is one directory's package: its non-test files, its in-package
// test files and its external (package x_test) test files.
type unit struct {
	files, tests, xtests []*ast.File
}

// decl is one package-level declaration under internal/ or cmd/.
type decl struct {
	name       string // last element of the import path, receiver, name
	recv       string // a method's type, named like a type's decl
	pos        token.Pos
	start, end token.Pos // the declaration's extent, for self-references
	dir        string
	called     bool // used by non-test code or by another package's tests
	ownTests   bool // used by its own package's tests
}

type module struct {
	fset  *token.FileSet
	units map[string]*unit
	decls map[token.Pos]*decl
	recv  map[*ast.Ident]bool // idents inside method receiver types
	std   types.Importer
	base  *loader

	ifaces   map[*types.Interface]bool // interfaces spelled in non-test code
	concrete []*types.Named            // module types whose methods interfaces may call
}

// loader serves module packages from source, type-checking each once,
// and the standard library through the shared source importer. The
// loader of an external test package substitutes the test variant of
// the package under test and re-checks the module packages importing it.
type loader struct {
	m       *module
	under   string
	variant *types.Package
	pkgs    map[string]*types.Package
}

func (l *loader) Import(p string) (*types.Package, error) {
	if p == l.under {
		return l.variant, nil
	}
	u := l.m.units[p]
	if u == nil {
		return l.m.std.Import(p)
	}
	if l != l.m.base && !l.m.imports(p, l.under) {
		return l.m.base.Import(p)
	}
	if pkg := l.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	pkg, err := l.m.check(p, u.files, l, l == l.m.base)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

func loadModule(root string) (*module, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		fset:   token.NewFileSet(),
		units:  map[string]*unit{},
		decls:  map[token.Pos]*decl{},
		recv:   map[*ast.Ident]bool{},
		ifaces: map[*types.Interface]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	m.base = &loader{m: m, pkgs: map[string]*types.Package{}}
	if err := m.parse(root, modPath); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.units))
	for p := range m.units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.base.Import(p); err != nil {
			return nil, err
		}
	}
	if err := m.creditInterfaces(); err != nil {
		return nil, err
	}
	for _, p := range paths {
		if err := m.checkTests(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func readModulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parse reads every package directory of the module, skipping testdata
// and directories whose names start with "." or "_", as the go tool
// does. A directory with only test files (the root) has no code to
// check and nothing else can import it, so it is dropped.
func (m *module) parse(root, modPath string) error {
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		ip := path.Join(modPath, dir)
		u := m.units[ip]
		if u == nil {
			u = &unit{}
			m.units[ip] = u
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			u.files = append(u.files, f)
			if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
				m.collect(f, path.Base(dir), filepath.Dir(p))
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			u.xtests = append(u.xtests, f)
		default:
			u.tests = append(u.tests, f)
		}
		return nil
	})
	for p, u := range m.units {
		if len(u.files) == 0 {
			delete(m.units, p)
		}
	}
	return err
}

// collect records the package-level declarations of one non-test file.
// main and init are called by the runtime, and blank names by nothing.
func (m *module) collect(f *ast.File, pkg, dir string) {
	add := func(id *ast.Ident, recv string, extent ast.Node) {
		if id.Name == "_" {
			return
		}
		d := &decl{name: pkg + "." + id.Name, pos: id.Pos(), start: extent.Pos(), end: extent.End(), dir: dir}
		if recv != "" {
			d.recv = pkg + "." + recv
			d.name = d.recv + "." + id.Name
		}
		m.decls[id.Pos()] = d
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				if d.Name.Name == "init" || (d.Name.Name == "main" && f.Name.Name == "main") {
					continue
				}
				add(d.Name, "", d)
				continue
			}
			recv := d.Recv.List[0].Type
			ast.Inspect(recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					m.recv[id] = true
				}
				return true
			})
			add(d.Name, receiverName(recv), d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "", s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "", s)
					}
				}
			}
		}
	}
}

// receiverName is the type name of a receiver: T for T, *T, T[E] or *T[E].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// imports reports whether the non-test files of module package p import
// target, directly or through other module packages.
func (m *module) imports(p, target string) bool {
	seen := map[string]bool{}
	var walk func(p string) bool
	walk = func(p string) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		for _, f := range m.units[p].files {
			for _, s := range f.Imports {
				q, _ := strconv.Unquote(s.Path.Value)
				if q == target || (m.units[q] != nil && walk(q)) {
					return true
				}
			}
		}
		return false
	}
	return walk(p)
}

// check type-checks one package and records its uses. A program check
// (non-test code) also gathers the interfaces it spells and the module
// types whose methods they may call.
func (m *module) check(p string, files []*ast.File, imp types.Importer, program bool) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if program {
		info.Types = map[ast.Expr]types.TypeAndValue{}
		info.Instances = map[*ast.Ident]types.Instance{}
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	for id, obj := range info.Uses {
		m.use(id, obj)
	}
	if !program {
		return pkg, nil
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			m.ifaces[it] = true
		}
	}
	for _, inst := range info.Instances {
		if n, ok := inst.Type.(*types.Named); ok && m.units[n.Obj().Pkg().Path()] != nil && !hasTypeParam(n) {
			m.concrete = append(m.concrete, n)
		}
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				m.concrete = append(m.concrete, n)
			}
		}
	}
	return pkg, nil
}

func hasTypeParam(n *types.Named) bool {
	for i := 0; i < n.TypeArgs().Len(); i++ {
		if _, ok := n.TypeArgs().At(i).(*types.TypeParam); ok {
			return true
		}
	}
	return false
}

// use credits one reference to the declaration it names, mapping
// generic instances back to their origin.
func (m *module) use(id *ast.Ident, obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := m.decls[obj.Pos()]
	if d == nil || m.recv[id] || (id.Pos() >= d.start && id.Pos() < d.end) {
		return
	}
	from := m.fset.Position(id.Pos()).Filename
	if strings.HasSuffix(from, "_test.go") && filepath.Dir(from) == d.dir {
		d.ownTests = true
	} else {
		d.called = true
	}
}

// checkTests type-checks a package's test variant (its files plus its
// in-package tests) and its external tests against that variant.
func (m *module) checkTests(p string) error {
	u := m.units[p]
	variant := m.base.pkgs[p]
	if len(u.tests) > 0 {
		files := append(append([]*ast.File(nil), u.files...), u.tests...)
		var err error
		if variant, err = m.check(p, files, m.base, false); err != nil {
			return err
		}
	}
	if len(u.xtests) == 0 {
		return nil
	}
	l := m.base
	if len(u.tests) > 0 {
		l = &loader{m: m, under: p, variant: variant, pkgs: map[string]*types.Package{}}
	}
	_, err := m.check(p+"_test", u.xtests, l, false)
	return err
}

// errorsInterfaces declares the interfaces package errors asserts inside
// its function bodies, where no package scope shows them.
const errorsInterfaces = `package errorsdyn

type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`

// creditInterfaces marks as called every module method that an
// interface of the program can dispatch to: the named interfaces of
// every package the module's non-test code reaches, error, the
// interfaces of package errors, and the interface types spelled in
// place.
func (m *module) creditInterfaces() error {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok {
						m.ifaces[it] = true
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.base.pkgs {
		walk(p)
	}
	m.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	f, err := parser.ParseFile(m.fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		return err
	}
	dyn, err := new(types.Config).Check("errorsdyn", m.fset, []*ast.File{f}, nil)
	if err != nil {
		return err
	}
	walk(dyn)

	byFirst := map[string][]*types.Interface{}
	for it := range m.ifaces {
		if it.NumMethods() > 0 {
			first := it.Method(0).Name()
			byFirst[first] = append(byFirst[first], it)
		}
	}
	for _, n := range m.concrete {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byFirst[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					im := it.Method(j)
					if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
						if d := m.decls[sel.Obj().(*types.Func).Origin().Pos()]; d != nil {
							d.called = true
						}
					}
				}
			}
		}
	}
	return nil
}

// dead returns the declarations nothing outside their own tests uses,
// in file order.
func (m *module) dead() []*decl {
	var out []*decl
	for _, d := range m.decls {
		if !d.called {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}
