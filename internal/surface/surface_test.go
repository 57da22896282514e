// Package surface holds the dead-surface gate: a test that type-checks every
// non-test package of the module and fails when a package-level identifier
// or method declared under internal/ has no reference from non-test code,
// unless surface.txt lists it with a reason. The package has no non-test
// file, so no binary links it.
package surface

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/racecheck"
)

// reasons is the fixed vocabulary a surface.txt line may give for keeping an
// identifier that no production code references.
var reasons = map[string]bool{
	"test API":       true, // tests check behaviour through it
	"test reference": true, // a differential test compares against it
	"operator API":   true, // a ROADMAP item gives it a production caller
	"wire spec":      true, // part of a format's definition, such as an enum's zero value
}

// A pkg is one package to type-check: its import path and its non-test
// files, in an order where every package follows those it imports.
type pkg struct {
	path  string
	files []string
}

// TestSurface holds the module to surface.txt: every identifier under
// internal/ that no non-test file references is listed there with a reason,
// and every listed identifier is still in that state.
//
// Like TestGateFixture, it skips itself under the race detector: it runs on
// one goroutine, so there is nothing to check, and type-checking the module
// takes several times longer there (over 10 s). `make surface` runs both
// without it.
func TestSurface(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("no concurrency to check; make surface runs it without -race")
	}
	root := filepath.Join("..", "..")
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		q := pkg{path: p.ImportPath}
		for _, f := range p.GoFiles {
			q.files = append(q.files, filepath.Join(p.Dir, f))
		}
		pkgs = append(pkgs, q)
	}
	listed, err := os.ReadFile("surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := gate(pkgs, "repro/internal/", string(listed))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// gate type-checks pkgs and compares the identifiers declared under the
// import-path prefix scope that no non-test code references against the
// surface.txt text listed. It returns one message per disagreement, each
// naming the exact line to add to or remove from surface.txt.
func gate(pkgs []pkg, scope, listed string) ([]string, error) {
	unused, err := unreferenced(pkgs, scope)
	if err != nil {
		return nil, err
	}
	var problems []string
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(listed))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case !reasons[reason]:
			problems = append(problems, fmt.Sprintf("surface.txt:%d: %q is not a known reason (%s); replace the line %q", n, reason, vocabulary(), line))
		case seen[name]:
			problems = append(problems, fmt.Sprintf("surface.txt:%d: %s is listed twice; remove the line %q", n, name, line))
		case !unused[name]:
			problems = append(problems, fmt.Sprintf("surface.txt:%d: %s is gone or has a production caller; remove the line %q", n, name, line))
		}
		seen[name] = true
	}
	var missing []string
	for name := range unused {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("%s has no production caller: delete it, or add the line %q with a reason from %s", name, name+" <reason>", vocabulary()))
	}
	return problems, nil
}

func vocabulary() string {
	var v []string
	for r := range reasons {
		v = append(v, r)
	}
	sort.Strings(v)
	return strings.Join(v, ", ")
}

// unreferenced returns the package-level identifiers and methods declared in
// the packages under scope that no file of pkgs references outside their own
// declaration, named as surface.txt names them: the import path past scope,
// then Name or Type.Method. A method is not counted when it is String, Error
// or Format, or when it makes its type satisfy an interface that pkgs
// declare or name, because a call through the interface reaches it.
func unreferenced(pkgs []pkg, scope string) (map[string]bool, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	decls := map[string]types.Object{}
	var methods []*types.Func
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.path, err)
		}
		imp.pkgs[p.path] = tp
		for _, f := range files {
			for _, d := range declarations(f) {
				own := declared(d, info)
				ast.Inspect(d, func(n ast.Node) bool {
					var obj types.Object
					switch n := n.(type) {
					case *ast.Ident:
						obj = info.Uses[n]
					case *ast.SelectorExpr:
						if s := info.Selections[n]; s != nil {
							obj = s.Obj()
						}
					}
					if obj = origin(obj); obj != nil && !own[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
		for _, tv := range info.Types {
			collectInterfaces(tv.Type, ifaces)
		}
		for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
			for _, obj := range m {
				if obj != nil {
					collectInterfaces(obj.Type(), ifaces)
				}
			}
		}
		rel, ok := strings.CutPrefix(p.path, scope)
		if !ok {
			continue
		}
		for _, name := range tp.Scope().Names() {
			obj := tp.Scope().Lookup(name)
			if name != "_" && name != "init" {
				decls[rel+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				methods = append(methods, m)
				decls[rel+"."+name+"."+m.Name()] = m
			}
		}
	}
	viaInterface := map[types.Object]bool{}
	for _, m := range methods {
		switch m.Name() {
		case "String", "Error", "Format":
			viaInterface[m] = true
			continue
		}
		// *T has every method T has, so testing *T covers both receivers.
		recv := m.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for iface := range ifaces {
			if hasMethod(iface, m.Name()) && types.Implements(recv, iface) {
				viaInterface[m] = true
				break
			}
		}
	}
	unused := map[string]bool{}
	for name, obj := range decls {
		if !used[obj] && !viaInterface[obj] {
			unused[name] = true
		}
	}
	return unused, nil
}

// declarations splits f's top-level declarations into units: a function or
// method, or one spec of a const, var, type or import group, so a constant
// defined in terms of another in the same group counts as its caller.
func declarations(f *ast.File) []ast.Node {
	var out []ast.Node
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok {
			for _, s := range g.Specs {
				out = append(out, s)
			}
		} else {
			out = append(out, d)
		}
	}
	return out
}

// declared returns the objects a declaration unit declares. A reference
// inside a declaration to what it declares is not a caller; for a method
// that includes its receiver's type, so a type only its own methods name is
// still unreferenced.
func declared(d ast.Node, info *types.Info) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[d.Name].(*types.Func)
		own[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				own[named.Origin().Obj()] = true
			}
		}
	case *ast.TypeSpec:
		own[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, n := range d.Names {
			own[info.Defs[n]] = true
		}
	}
	return own
}

// origin maps a member of an instantiated generic type to the declaration it
// was instantiated from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectInterfaces adds every interface with methods that t is or that a
// signature, pointer, slice, array, map or channel in t holds.
func collectInterfaces(t types.Type, into map[*types.Interface]bool) {
	switch t := t.(type) {
	case *types.Named:
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
			into[i] = true
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			into[t] = true
		}
	case *types.Pointer:
		collectInterfaces(t.Elem(), into)
	case *types.Slice:
		collectInterfaces(t.Elem(), into)
	case *types.Array:
		collectInterfaces(t.Elem(), into)
	case *types.Chan:
		collectInterfaces(t.Elem(), into)
	case *types.Map:
		collectInterfaces(t.Key(), into)
		collectInterfaces(t.Elem(), into)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), into)
			}
		}
	}
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// moduleImporter hands the type checker the module's packages as checked so
// far and reads everything else from the standard library's source.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// TestGateFixture runs the gate over testdata, a two-package module of
// planted defects and exempt cases, and wants exactly the defects reported.
func TestGateFixture(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("no concurrency to check; make surface runs it without -race")
	}
	var pkgs []pkg
	for _, p := range []string{"internal/fx", "cmd/app"} {
		files, err := filepath.Glob(filepath.Join("testdata", p, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		q := pkg{path: "fixture/" + p}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				q.files = append(q.files, f)
			}
		}
		pkgs = append(pkgs, q)
	}
	listed, err := os.ReadFile(filepath.Join("testdata", "surface.txt"))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := gate(pkgs, "fixture/internal/", string(listed))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fx.Unused has no production caller",           // exported, called only from a test file
		"fx.unused has no production caller",           // unexported
		"fx.Loop has no production caller",             // called only from its own body
		"fx.Square.Perimeter has no production caller", // a method that satisfies no interface
		"fx.Used is gone or has a production caller",   // listed, but app calls it
		"fx.Gone is gone or has a production caller",   // listed, but not declared
		`"nice to have" is not a known reason`,         // listed with a reason outside the vocabulary
	}
	for _, w := range want {
		n := 0
		for _, p := range problems {
			if strings.Contains(p, w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d reports contain %q, want 1", n, w)
		}
	}
	// Square.Area (via fx.Shape), Box.Get (via an instantiation), Name.String
	// and Src.Read (via io.Reader, named by io.ReadAll's signature) are exempt.
	if len(problems) != len(want) {
		t.Errorf("%d reports, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
}
