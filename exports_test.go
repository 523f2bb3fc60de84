package smc_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exports no product path reaches that stay
// exported, grouped by the reason they stay. Keys are "pkg.Name" or
// "pkg.Type.Method", pkg being the path below the module's internal/.
var exportAllowlist = []struct {
	reason string
	keys   []string
}{
	{"netsim test-network API used by other packages' tests",
		[]string{"netsim.Lossy", "netsim.Torture", "netsim.Network.Partition", "netsim.Network.Heal"}},
	{"fault hooks: the reliable tests hold datagrams on the in-memory switch, the chaos harness cuts real sockets",
		[]string{"transport.Switch.SetDeliveryHook", "transport.UDPTransport.SetSendHook"}},
	{"the event equality other packages' tests compare decoded events with",
		[]string{"event.Event.Equal", "event.Value.Equal"}},
	{"the borrow probe the wire, bus and client tests check a decoded event's packet lifetime with",
		[]string{"event.Event.Borrowed"}},
	{"sentinel errors other packages' tests match or script",
		[]string{"discovery.ErrNoCell", "event.ErrBadFilter", "reliable.ErrGaveUp"}},
	{"the device simulator's schema and codec, with which the client and smc tests drive devices",
		[]string{"sensor.AttrAction", "sensor.AttrKind", "sensor.AttrSeq", "sensor.AttrTarget", "sensor.AttrValue",
			"sensor.DecodeCommand", "sensor.EncodeReading", "sensor.OpAnalyse", "sensor.Sim.EmitOnce", "sensor.WithUnreliable"}},
	{"constructor and limits other packages' tests build on",
		[]string{"matcher.NewFast", "event.InlineAttrs", "transport.MaxUDPDatagram"}},
	{"state other packages' tests and the chaos harness inspect",
		[]string{"bus.Bus.Shards", "policy.Engine.Authorizations", "wire.CellStats.Get", "smc.Device.Probe"}},
	{"wire pieces other packages' tests forge or parse packets with",
		[]string{"discovery.AuthDigest", "wire.SplitDurableEvent"}},
	{"device API the chaos harness's unsubscribe action drives",
		[]string{"client.Client.Unsubscribe"}},
}

// TestEveryExportIsReached type-checks the non-test files of this module
// and of the benchmark module and fails on any exported identifier
// under internal/ (the Fig. 4 reproduction in internal/bench aside) that
// no non-test file of another package references. Methods that satisfy
// an interface are reached through it, so String, Error and the
// implementations of the product's own interfaces need no entry, and so
// are the types a reached name's exported fields and signature name.
// Struct fields themselves are not audited.
func TestEveryExportIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library they import")
	}
	const mod = "github.com/amuse/smc"
	l := newExportLoader(map[string]string{mod: ".", mod + "/benchmark": "benchmark"})
	pkgs, err := l.loadTree(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	audited := func(path string) bool {
		return strings.HasPrefix(path, mod+"/internal/") && path != mod+"/internal/bench"
	}
	allowed := keySet{}
	for _, entry := range exportAllowlist {
		for _, key := range entry.keys {
			allowed[mod+"/internal/"+key] = true
		}
	}
	// The allowlist's entries are API, and so is what their signatures
	// name; an entry the audit reaches without it has gone stale.
	for _, key := range unreachedExports(pkgs, audited, allowed.has) {
		t.Errorf("%s: exported, but no non-test file outside its package references it; unexport or delete it",
			strings.TrimPrefix(key, mod+"/internal/"))
	}
	flagged := keySet{}
	for _, key := range unreachedExports(pkgs, audited, keySet{}.has) {
		flagged[key] = true
	}
	for key := range allowed {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is reached or gone; drop it", strings.TrimPrefix(key, mod+"/internal/"))
		}
	}
}

type keySet map[string]bool

func (s keySet) has(key string) bool { return s[key] }

// TestExportAuditFlagsOnlyUnreached runs the audit over a small module:
// one export nothing references, one method that only implements an
// interface, one String method. Only the first may be flagged.
func TestExportAuditFlagsOnlyUnreached(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"internal/lib/lib.go": `package lib

type Shape interface{ Area() int }

type Square struct{ side int }

func NewSquare(n int) Square { return Square{side: n} }

// Area is called only through Shape.
func (s Square) Area() int { return s.side * s.side }

func (s Square) String() string { return "square" }

func Unused() {}
`,
		"main.go": `package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area(), lib.NewSquare(3))
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := newExportLoader(map[string]string{"example.com/fixture": dir})
	pkgs, err := l.loadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := unreachedExports(pkgs, func(path string) bool {
		return strings.HasPrefix(path, "example.com/fixture/internal/")
	}, keySet{}.has)
	if want := []string{"example.com/fixture/internal/lib.Unused"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// auditPkg is one type-checked package of the audited modules.
type auditPkg struct {
	types *types.Package
	info  *types.Info
}

// exportLoader type-checks module packages from source, with function
// bodies, and the standard library from GOROOT without them. Every
// package is checked once, so an object has one identity in all of them.
type exportLoader struct {
	fset    *token.FileSet
	ctxt    build.Context
	modules map[string]string // module path -> directory
	pkgs    map[string]*types.Package
	mine    map[string]*auditPkg
}

func newExportLoader(modules map[string]string) *exportLoader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // the pure-Go variants of net and os/user need no cgo run
	return &exportLoader{
		fset:    token.NewFileSet(),
		ctxt:    ctxt,
		modules: modules,
		pkgs:    map[string]*types.Package{"unsafe": types.Unsafe},
		mine:    map[string]*auditPkg{},
	}
}

// moduleDir maps an import path inside one of the modules to its
// directory, preferring the longest module path.
func (l *exportLoader) moduleDir(path string) (string, bool) {
	best := ""
	for m := range l.modules {
		if (path == m || strings.HasPrefix(path, m+"/")) && len(m) > len(best) {
			best = m
		}
	}
	if best == "" {
		return "", false
	}
	return filepath.Join(l.modules[best], filepath.FromSlash(strings.TrimPrefix(path, best))), true
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *exportLoader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if dir, ok := l.moduleDir(path); ok {
		return l.check(path, dir, true)
	}
	dir := filepath.Join(l.ctxt.GOROOT, "src", path)
	if _, err := os.Stat(dir); err != nil {
		dir = filepath.Join(l.ctxt.GOROOT, "src", "vendor", path)
	}
	return l.check(path, dir, false)
}

// check parses and type-checks the package in dir. Errors in the
// standard library (compiler intrinsics, assembly-only functions) do not
// matter to the audit and are ignored.
func (l *exportLoader) check(path, dir string, mine bool) (*types.Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var firstErr error
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !mine,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if mine && firstErr != nil {
		return nil, firstErr
	}
	l.pkgs[path] = pkg
	if mine {
		l.mine[path] = &auditPkg{types: pkg, info: info}
	}
	return pkg, nil
}

// loadTree type-checks every package under the given module roots,
// skipping testdata and directories that hold only tests.
func (l *exportLoader) loadTree(roots ...string) ([]*auditPkg, error) {
	for _, root := range roots {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || isModuleRoot(dir)) {
				return filepath.SkipDir
			}
			bp, err := l.ctxt.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
				return nil
			} else if err != nil {
				return err
			}
			path, ok := l.importPath(dir)
			if !ok {
				return nil
			}
			_, err = l.Import(path)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.mine))
	for p := range l.mine {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*auditPkg, len(paths))
	for i, p := range paths {
		out[i] = l.mine[p]
	}
	return out, nil
}

// isModuleRoot reports whether dir is the root of a module: below the
// root being walked, that is another module, which loadTree walks on
// its own.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// importPath inverts moduleDir.
func (l *exportLoader) importPath(dir string) (string, bool) {
	best, bestDir := "", ""
	for m, md := range l.modules {
		rel, err := filepath.Rel(md, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if bestDir == "" || len(md) > len(bestDir) {
			best, bestDir = m, md
			if rel != "." {
				best = m + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return best, best != ""
}

// unreachedExports returns, sorted, the keys ("path.Name" or
// "path.Type.Method") of the exported package-level objects and methods
// of the audited packages that nothing reaches. An object is reached
// when a file of another package names it or holds an expression of its
// type; when it is the type of an exported field, parameter or result
// of a reached object, the API it belongs to; when it is a method that
// satisfies an interface its type implements; or, as an interface
// method, when a type of another package implements the interface. Keys
// kept reports true for count as reached.
func unreachedExports(pkgs []*auditPkg, audited func(path string) bool, kept func(key string) bool) []string {
	reached := map[types.Object]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	var markType func(t types.Type, self string, seen map[types.Type]bool)
	markType = func(t types.Type, self string, seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			markType(types.Unalias(t), self, seen)
		case *types.Named:
			if obj := t.Origin().Obj(); obj.Pkg() != nil && obj.Pkg().Path() != self {
				reach(obj)
			}
		case *types.Pointer:
			markType(t.Elem(), self, seen)
		case *types.Slice:
			markType(t.Elem(), self, seen)
		case *types.Array:
			markType(t.Elem(), self, seen)
		case *types.Chan:
			markType(t.Elem(), self, seen)
		case *types.Map:
			markType(t.Key(), self, seen)
			markType(t.Elem(), self, seen)
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					markType(tup.At(i).Type(), self, seen)
				}
			}
		}
	}
	for _, p := range pkgs {
		self := p.types.Path()
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != self {
				reach(origin(obj))
			}
		}
		seen := map[types.Type]bool{}
		for _, tv := range p.info.Types {
			markType(tv.Type, self, seen)
		}
	}

	// The candidates, and every interface with methods that a checked
	// package declares, indexed by method name.
	type candidate struct {
		key  string
		obj  types.Object
		recv *types.Named // of a method
	}
	var cands []candidate
	ifaces := map[string][]*types.Named{"Error": {types.Universe.Lookup("error").Type().(*types.Named)}}
	var named []*types.Named
	visited := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := pkg.Path() + "." + name
			isCand := audited(pkg.Path()) && obj.Exported()
			if isCand {
				cands = append(cands, candidate{key, obj, nil})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue // unsafe.Pointer
			}
			it, isIface := n.Underlying().(*types.Interface)
			if isIface && it.IsMethodSet() && n.TypeParams().Len() == 0 {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], n)
				}
			}
			if n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
			if !isCand {
				continue
			}
			if isIface {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						cands = append(cands, candidate{key + "." + m.Name(), m, n})
					}
				}
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					cands = append(cands, candidate{key + "." + m.Name(), m, n})
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
	}
	implements := func(n, it *types.Named) bool {
		iface := it.Underlying().(*types.Interface)
		return types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)
	}
	implementedElsewhere := func(it *types.Named) bool {
		for _, n := range named {
			if n.Obj().Pkg() != it.Obj().Pkg() && !types.IsInterface(n) && implements(n, it) {
				return true
			}
		}
		return false
	}
	for _, c := range cands {
		if kept(c.key) {
			reach(c.obj)
		}
		m, n := c.obj, c.recv
		if n == nil {
			// An interface is reached when another package implements it.
			if tn, ok := m.(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().(*types.Named); ok && types.IsInterface(it) && it.TypeParams().Len() == 0 &&
					it.Underlying().(*types.Interface).NumMethods() > 0 && implementedElsewhere(it) {
					reach(m)
				}
			}
			continue
		}
		if types.IsInterface(n) {
			if implementedElsewhere(n) {
				reach(m)
			}
			continue
		}
		if n.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces[m.Name()] {
			if implements(n, it) {
				reach(m)
				break
			}
		}
	}

	// What a reached object's exported fields, parameters and results
	// name is reached with it.
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		seen := map[types.Type]bool{}
		switch o := obj.(type) {
		case *types.TypeName:
			if st, ok := o.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						markType(f.Type(), "", seen)
					}
				}
			}
		default:
			markType(o.Type(), "", seen)
		}
	}

	var out []string
	for _, c := range cands {
		if !reached[c.obj] {
			out = append(out, c.key)
		}
	}
	sort.Strings(out)
	return out
}

// origin maps an instantiated generic function, method or field to the
// object its package declares.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
