package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported internal/ names that stand without a
// non-test caller in another package, one "<pkg>.<Name> <reason>" per line.
const apiAllowlist = "testdata/api-allowlist.txt"

// apiPackage is one package's non-test Go files, type-checked: the
// exported names it declares (internal/ packages only) and what its
// identifiers and selectors resolve to.
type apiPackage struct {
	dir      string
	internal bool
	// decls maps "Name" or "Type.Method" to the declaration's surface:
	// the type expressions a caller of that name gets to see.
	decls map[string][]ast.Expr
	types *types.Package
	info  *types.Info
}

// TestExportedNamesHaveCallers holds every exported package-level name
// of an internal/ package (funcs, types, vars, consts) and every exported
// method to a caller in a non-test file of another package: internal/,
// cmd/, examples/ or the benchmark/ rig, a module of its own. Names are
// resolved with go/types. A reference resolving to a package-level name
// reaches it; a selector resolving to a method reaches that method, and
// one resolving to an interface method reaches every method of that name
// whose type implements the interface, as the standard library's calls
// through fmt.Stringer, error and errors' Is and Unwrap do. A type is
// also reached when it appears in the signature or exported fields of a
// reached name. The rest must be listed, with a reason, in testdata/api-allowlist.txt — and
// a listed name that has since gained a caller, or is gone, fails too.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgs := loadAPITree(t)
	allow := readAPIAllowlist(t)

	// usedBy["pkgpath.Name"] or usedBy["pkgpath.Type.Method"] holds the
	// other packages that reach a name.
	usedBy := map[string]map[*types.Package]bool{}
	use := func(obj types.Object, from *types.Package) {
		if obj.Pkg() == nil || obj.Pkg() == from {
			return
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			key = obj.Pkg().Path() + "." + receiverTypeName(fn.Origin()) + "." + obj.Name()
		}
		if usedBy[key] == nil {
			usedBy[key] = map[*types.Package]bool{}
		}
		usedBy[key][from] = true
	}
	// named lists every package-level type of the tree and a pointer to
	// it: the method sets an interface call can land in.
	var named []types.Type
	for _, q := range pkgs {
		for _, name := range q.types.Scope().Names() {
			if tn, ok := q.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n, types.NewPointer(n))
				}
			}
		}
	}
	// An interface call reaches the method of that name of every type
	// implementing the interface, promoted ones included.
	implementers := map[*types.Interface][]*types.MethodSet{}
	callThrough := func(iface *types.Interface, name string, from *types.Package) {
		sets, ok := implementers[iface]
		if !ok {
			for _, typ := range named {
				if !types.IsInterface(typ) && types.Implements(typ, iface) {
					sets = append(sets, types.NewMethodSet(typ))
				}
			}
			implementers[iface] = sets
		}
		for _, ms := range sets {
			if m := ms.Lookup(nil, name); m != nil {
				use(m.Obj(), from)
			}
		}
	}
	for _, q := range pkgs {
		for _, obj := range q.info.Uses {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				use(obj, q.types)
			}
		}
		for _, sel := range q.info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
					callThrough(iface, fn.Name(), q.types)
				} else {
					use(fn, q.types)
				}
			}
		}
	}
	for _, iface := range stdCalls() {
		callThrough(iface, iface.Method(0).Name(), nil)
	}
	total := 0
	var missing []string
	seenAllow := map[string]bool{}
	for _, p := range pkgs {
		if !p.internal {
			continue
		}
		reached := map[string]bool{}
		var work []string
		for key := range p.decls {
			total++
			if len(usedBy[p.types.Path()+"."+key]) > 0 {
				reached[key] = true
				work = append(work, key)
			}
		}
		// A type a reached name exposes is reached through it.
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			for _, e := range p.decls[key] {
				ast.Inspect(e, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						return false // another package's name
					case *ast.Ident:
						if _, ok := p.decls[n.Name]; ok && !reached[n.Name] {
							reached[n.Name] = true
							work = append(work, n.Name)
						}
					}
					return true
				})
			}
		}
		pkg := path.Base(p.dir)
		for key := range p.decls {
			name := pkg + "." + key
			if reached[key] {
				continue
			}
			if _, ok := allow[name]; ok {
				seenAllow[name] = true
				continue
			}
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is exported but no non-test file of another package uses it: delete it, unexport it, or list it with a reason in %s", name, apiAllowlist)
	}
	for name := range allow {
		if !seenAllow[name] {
			t.Errorf("%s: %s lists it, but it has a caller in another package or no longer exists: drop the line", apiAllowlist, name)
		}
	}
	t.Logf("%d exported names under internal/, %d allowlisted", total, len(allow))
}

// stdCalls are the one-method interfaces through which the standard
// library, whose files the gate does not scan, calls methods of the tree:
// fmt's Stringer and error, and the Is and Unwrap that errors.Is and
// errors.As look for.
func stdCalls() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, typ := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", typ)
		}
		return types.NewTuple(vars...)
	}
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	str := types.Typ[types.String]
	return []*types.Interface{
		method("String", tuple(), tuple(str)),
		method("Error", tuple(), tuple(str)),
		method("Is", tuple(errType), tuple(types.Typ[types.Bool])),
		method("Unwrap", tuple(), tuple(errType)),
	}
}

// receiverTypeName is the name of a method's receiver's base type.
func receiverTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// loadAPITree type-checks the non-test Go files of every package of the
// module and of the benchmark/ module, whose deps include this one's, in
// `go list -deps` order. The standard library is type-checked from
// source, with cgo off so no C toolchain is needed.
func loadAPITree(t *testing.T) []*apiPackage {
	t.Helper()
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*apiPackage{}
	var pkgs []*apiPackage
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p.types, nil
		}
		return std.Import(path)
	})}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", mod, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var lp struct {
				ImportPath, Dir string
				GoFiles         []string
				Standard        bool
			}
			if err := dec.Decode(&lp); err != nil {
				t.Fatal(err)
			}
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			rel, err := filepath.Rel(root, lp.Dir)
			if err != nil {
				t.Fatal(err)
			}
			p := &apiPackage{
				dir:   filepath.ToSlash(rel),
				decls: map[string][]ast.Expr{},
				info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
			}
			p.internal = strings.HasPrefix(p.dir, "internal/")
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				p.add(f)
				files = append(files, f)
			}
			if p.types, err = conf.Check(lp.ImportPath, fset, files, p.info); err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = p
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// add records one file's exported declarations.
func (p *apiPackage) add(f *ast.File) {
	if !p.internal {
		return
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			key := d.Name.Name
			if d.Recv != nil {
				recv := receiverName(d.Recv.List[0].Type)
				key = recv + "." + key
			}
			p.decls[key] = []ast.Expr{d.Type}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						p.decls[s.Name.Name] = typeSurface(s)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							p.decls[n.Name] = nil
							if s.Type != nil {
								p.decls[n.Name] = []ast.Expr{s.Type}
							}
						}
					}
				}
			}
		}
	}
}

// receiverName is the base type name of a method receiver.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeSurface is what a type declaration shows another package: the
// types of its exported and embedded fields for a struct, the whole
// definition otherwise.
func typeSurface(s *ast.TypeSpec) []ast.Expr {
	st, ok := s.Type.(*ast.StructType)
	if !ok {
		return []ast.Expr{s.Type}
	}
	var out []ast.Expr
	for _, fld := range st.Fields.List {
		exported := len(fld.Names) == 0
		for _, n := range fld.Names {
			exported = exported || n.IsExported()
		}
		if exported {
			out = append(out, fld.Type)
		}
	}
	return out
}

// readAPIAllowlist reads the allowlist; every line must carry a reason.
func readAPIAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", apiAllowlist, line, name)
		}
		out[name] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
