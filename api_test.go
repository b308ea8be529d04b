package main_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported internal/ names that stand without a
// non-test caller in another package, one "<pkg>.<Name> <reason>" per line.
const apiAllowlist = "testdata/api-allowlist.txt"

// apiPackage is one directory's non-test Go files: the exported names it
// declares (internal/ packages only) and the names it selects from others.
type apiPackage struct {
	dir      string
	internal bool
	// decls maps "Name" or "Type.Method" to the declaration's surface:
	// the type expressions a caller of that name gets to see.
	decls map[string][]ast.Expr
	// uses holds "importpath.Name" for every pkg.Name selector.
	uses map[string]bool
	// sels holds the Sel of every selector expression, for methods.
	sels map[string]bool
}

// TestExportedNamesHaveCallers holds every exported package-level name
// of an internal/ package (funcs, types, vars, consts) and every exported
// method to a caller in a non-test file of another package: internal/,
// cmd/, examples/ or the benchmark/ rig, a module of its own. A pkg.Name
// selector reaches a name; any .Name selector outside the package reaches
// a method of that name; a type is also reached when it appears in the
// signature or exported fields of a reached name. The rest must be
// listed, with a reason, in testdata/api-allowlist.txt — and a listed name
// that has since gained a caller, or is gone, fails too.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgs := parseAPITree(t, ".")
	allow := readAPIAllowlist(t)

	usedByOther := func(p *apiPackage, key string) bool {
		for _, q := range pkgs {
			if q == p {
				continue
			}
			if _, method, ok := strings.Cut(key, "."); ok {
				if q.sels[method] {
					return true
				}
			} else if q.uses["zoomer/"+p.dir+"."+key] {
				return true
			}
		}
		return false
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
			if usedByOther(p, key) {
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

// parseAPITree parses the non-test Go files of every package under root,
// the benchmark/ module included, keyed by directory.
func parseAPITree(t *testing.T, root string) []*apiPackage {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*apiPackage{}
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		p := byDir[dir]
		if p == nil {
			p = &apiPackage{
				dir:      dir,
				internal: strings.HasPrefix(dir, "internal/"),
				decls:    map[string][]ast.Expr{},
				uses:     map[string]bool{},
				sels:     map[string]bool{},
			}
			byDir[dir] = p
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*apiPackage, 0, len(byDir))
	for _, p := range byDir {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	return pkgs
}

// add records one file's exported declarations and selectors.
func (p *apiPackage) add(f *ast.File) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(ipath)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = ipath
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			p.sels[sel.Sel.Name] = true
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				p.uses[imports[x.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
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
