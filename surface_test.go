package ampsinf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// surfaceModules are the module directories whose packages are type
// checked; bench/ is its own module but calls into internal/ like any
// other caller.
var surfaceModules = []string{".", "bench"}

// surfaceRoots are the trees whose non-test files count as callers.
var surfaceRoots = []string{"internal", "cmd", "examples", "bench"}

// testOnlyAllowed names the declarations under internal/ that only
// _test.go files use and stay anyway, each with the reason. A key
// is the declaring directory, then the type for a method or a field,
// then the name.
var testOnlyAllowed = map[string]string{
	"internal/obs.ValidateTree":                  "span-tree specification shared by obs, coordinator and serving tests",
	"internal/obs.SumCostsAll":                   "cost-attribution oracle (DESIGN §8): obs, coordinator, serving and core tests replay span trees against the meter",
	"internal/cloud/pricing.LambdaExecutionCost": "closed-form reference for the billing meter, shared by billing, lambda and experiments tests",
	"internal/tensor.SetMaxWorkers":              "pins the kernel worker count in tensor, nn/zoo and core tests",
	"internal/miqp.BruteForce":                   "exhaustive oracle the branch-and-bound is checked against in miqp and optimizer tests",
	"internal/miqp.SolveOneHot":                  "reference one-hot solver the node-count and property tests compare against",
	"internal/cloud/s3.Store.TotalBytes":         "storage-conservation check shared by s3, coordinator and serving tests",
	"internal/cloud/lambda.Platform.Functions":   "leak check (no function left after teardown) shared by lambda, coordinator and core tests",
	"internal/cloud/faults.Injector.InStorm":     "storm-window specification shared by faults and experiments tests",
	"internal/cli.Set.Rule":                      "TestFlagRules in cmd/ampsinf walks every registered flag's range and parent; cli's own tests read the same rules",
	"internal/miqp.Solution.Nodes":               "node-count pins in miqp and optimizer tests (TestSolveOneHotNodeCount, TestBnBBuildSolveNodes)",
	"internal/baselines.SerferReport.Output":     "the Serfer test checks the step-function chain returns the model's prediction; production decodes it to validate the run either way",
	"internal/optimizer.Optimizer.dpSolves":      "DP-solve count TestOptimizeDPSolves pins (at most 20 per plan, 2 when the SLO cannot be met)",
	"internal/optimizer.Optimizer.spansSolved":   "live-span count TestLiveSpanCounts and TestBnBBuildSolveNodes pin (New solves no span)",
}

// TestDeclarationsHaveProductionCallers fails on a func, method, type,
// var or const declared in a non-test file under internal/ that no
// non-test file refers to, on an interface method there that no non-test
// file calls through its interface, and on a struct field there that no
// non-test file reads — code and data only tests reach — exported or not, unless
// testOnlyAllowed names it. It fails on a stale allowlist entry too.
func TestDeclarationsHaveProductionCallers(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(testOnlySurface(tree), testOnlyAllowed) {
		t.Error(p)
	}
}

// repoTree type-checks the repository's non-test files once per test
// binary; the surface and layering tests share it.
var repoTree = sync.OnceValues(func() (*checkedTree, error) {
	pkgs, err := listPackages(surfaceModules)
	if err != nil {
		return nil, err
	}
	return typeCheck(os.DirFS("."), pkgs)
})

// surfaceProblems reports each listed name the allowlist does not
// name, and each allowlist entry that is not listed or has no reason.
func surfaceProblems(unused []string, allowed map[string]string) []string {
	var problems []string
	listed := map[string]bool{}
	for _, key := range unused {
		listed[key] = true
		if _, ok := allowed[key]; !ok {
			problems = append(problems, key+": only tests use it; delete it, move it into its one test package, or allowlist it with a reason")
		}
	}
	for key, reason := range allowed {
		if reason == "" {
			problems = append(problems, "allowlist entry "+key+" has no reason")
		}
		if !listed[key] {
			problems = append(problems, "allowlist entry "+key+" is stale: production uses it or it no longer exists")
		}
	}
	sort.Strings(problems)
	return problems
}

// TestSurfaceCheckerFixture runs the checker on an in-memory tree.
func TestSurfaceCheckerFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a

type T struct {
	Read    int
	Keyed   int
	Set     int
	Summed  int
	Counted int
	Tagged  int ` + "`json:\"tagged\"`" + `
	Inner   struct{ Deep, Kept int }
	Stats   struct{ N int }
	next    *T
}

func (t *T) Used() int      { return t.Read + t.Inner.Kept + t.next.Read + helper() }
func (t *T) OnlyTests() int { return 0 }
func (t *T) Recur() int     { return t.Recur() }
func (t *T) Add()           {}
func (t *T) Via() int       { return 1 }
func (t *T) String() string { return "t" }

type Viaer interface{ Via() int }

type Port interface {
	Called() int
	Uncalled()
}

func Helper() {}

const (
	Kept = iota
	Dropped
)

var Shared, Unshared int

type unexported struct{}

func (unexported) Exported() {}

var _ Viaer = (*T)(nil)

func init() {}

func helper() int { return 1 }
func lower()      {}
func testedOnly() {}
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func use() { _ = new(T).OnlyTests(); Helper(); _ = Dropped; _ = Unshared; testedOnly() }
`)},
		"internal/m/m.go": {Data: []byte(`package m

type Acc struct{ n int }

func (a *Acc) Add() { a.n++ }
`)},
		"cmd/c/main.go": {Data: []byte(`package main

import (
	"ampsinf/internal/a"
	"ampsinf/internal/m"
)

func main() {
	t := a.T{Keyed: 1}
	t.Set = 2
	t.Summed += 3
	t.Counted++
	t.Inner.Deep = 4
	t.Stats.N++
	var v a.Viaer = &t
	_ = v.Via()
	var p a.Port
	_ = p.Called()
	_ = t.Used()
	_ = a.Kept
	_ = a.Shared
	new(m.Acc).Add()
}
`)},
		"bench/b.go": {Data: []byte(`package b

type Other struct{}

func (Other) Exported() {}
func (Other) Recur() int { return 0 }
`)},
	}
	pkgs := []listedPackage{
		{ImportPath: "ampsinf/internal/a", Dir: "internal/a", GoFiles: []string{"a.go"}},
		{ImportPath: "ampsinf/internal/m", Dir: "internal/m", GoFiles: []string{"m.go"}},
		{ImportPath: "ampsinf/cmd/c", Dir: "cmd/c", GoFiles: []string{"main.go"}},
		{ImportPath: "ampsinf/bench", Dir: "bench", GoFiles: []string{"b.go"}},
	}
	tree, err := typeCheck(fsys, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	got := testOnlySurface(tree)
	// T is used by its own methods' receivers; Exported's two
	// declarations, like T.Add and m.Acc.Add, are different objects and
	// do not keep each other; Recur calls only itself; Via is called
	// only through Viaer and String implements fmt.Stringer; of Port's
	// methods only Called is called through it; a field set
	// by a composite-literal key, =, += or ++ is only written, Inner.Deep
	// too, and Stats with its N, as writing N writes the Stats held by
	// value, and m.Acc.n, which only its own package writes; Tagged is
	// read by the JSON encoder. Unexported names are judged alike: helper
	// and next are kept by Used, lower is never called and testedOnly
	// only by a test; init and the blank var are not judged.
	want := []string{
		"internal/a.Dropped",
		"internal/a.Helper",
		"internal/a.Port.Uncalled",
		"internal/a.T.Add",
		"internal/a.T.Counted",
		"internal/a.T.Inner.Deep",
		"internal/a.T.Keyed",
		"internal/a.T.OnlyTests",
		"internal/a.T.Recur",
		"internal/a.T.Set",
		"internal/a.T.Stats",
		"internal/a.T.Stats.N",
		"internal/a.T.Summed",
		"internal/a.Unshared",
		"internal/a.lower",
		"internal/a.testedOnly",
		"internal/a.unexported.Exported",
		"internal/m.Acc.n",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("checker listed %q\nwant %q", got, want)
	}

	allowed := map[string]string{
		"internal/a.Dropped":     "kept for the fixture",
		"internal/a.Helper":      "",
		"internal/a.T.Used":      "production calls it",
		"internal/a.Gone":        "no longer declared",
		"internal/a.T.OnlyTests": "kept for the fixture",
	}
	wantProblems := []string{
		"allowlist entry internal/a.Gone is stale: production uses it or it no longer exists",
		"allowlist entry internal/a.Helper has no reason",
		"allowlist entry internal/a.T.Used is stale: production uses it or it no longer exists",
	}
	for _, key := range want {
		if _, ok := allowed[key]; !ok {
			wantProblems = append(wantProblems, key+": only tests use it; delete it, move it into its one test package, or allowlist it with a reason")
		}
	}
	sort.Strings(wantProblems)
	if problems := surfaceProblems(got, allowed); strings.Join(problems, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(wantProblems, "\n"))
	}

	one := []listedPackage{{ImportPath: "ampsinf/internal/a", Dir: "internal/a", GoFiles: []string{"a.go"}}}
	for _, src := range []string{"package a\nfunc {", "package a\nfunc F() int { return \"\" }"} {
		bad := fstest.MapFS{"internal/a/a.go": {Data: []byte(src)}}
		if _, err := typeCheck(bad, one); err == nil {
			t.Errorf("%q: no error", src)
		}
	}
}

// listedPackage is one package as `go list -json` prints it, with Dir
// relative to the repository root.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages lists the packages of each module directory and their
// dependencies, each once; a standard-library package comes with its
// compiled export data.
func listPackages(modules []string) ([]listedPackage, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var pkgs []listedPackage
	seen := map[string]bool{}
	for _, m := range modules {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
		cmd.Dir = m
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", m, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			if !p.Standard {
				rel, err := filepath.Rel(root, p.Dir)
				if err != nil {
					return nil, err
				}
				p.Dir = filepath.ToSlash(rel)
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// implicitMethods are the methods the standard library calls on values
// production hands it as any — fmt's Stringer and error, errors'
// Unwrap, encoding/json's Marshaler and net/http's Handler — by name
// and parameter and result types.
var implicitMethods = map[string]string{
	"String":      "() (string)",
	"Error":       "() (string)",
	"Unwrap":      "() (error)",
	"MarshalJSON": "() ([]byte, error)",
	"ServeHTTP":   "(net/http.ResponseWriter, *net/http.Request) ()",
}

// checkedPackage is one type-checked package: its non-test files and
// what the checker resolved in them.
type checkedPackage struct {
	lp    *listedPackage
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// checkedTree is every non-standard package of a listing, type-checked,
// dependencies first.
type checkedTree struct {
	fset *token.FileSet
	pkgs []*checkedPackage
}

// typeCheck type-checks the non-test files of pkgs; a standard package
// is read from its export data.
func typeCheck(fsys fs.FS, pkgs []listedPackage) (*checkedTree, error) {
	fset := token.NewFileSet()
	byPath := map[string]*listedPackage{}
	for i := range pkgs {
		byPath[pkgs[i].ImportPath] = &pkgs[i]
	}
	std := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if lp := byPath[p]; lp != nil && lp.Export != "" {
			return os.Open(lp.Export)
		}
		return nil, fmt.Errorf("no export data for %q", p)
	})
	var order []*checkedPackage
	done := map[string]*checkedPackage{}
	var imp importerFunc
	check := func(lp *listedPackage) (*types.Package, error) {
		if c := done[lp.ImportPath]; c != nil {
			if c.pkg == nil {
				return nil, fmt.Errorf("import cycle through %s", lp.ImportPath)
			}
			return c.pkg, nil
		}
		c := &checkedPackage{lp: lp, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}}
		done[lp.ImportPath] = c
		for _, name := range lp.GoFiles {
			p := path.Join(lp.Dir, name)
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, c.files, c.info)
		if err != nil {
			return nil, err
		}
		c.pkg = pkg
		order = append(order, c)
		return pkg, nil
	}
	imp = func(p string) (*types.Package, error) {
		if p == "unsafe" {
			return types.Unsafe, nil
		}
		if lp := byPath[p]; lp != nil && !lp.Standard {
			return check(lp)
		}
		return std.Import(p)
	}
	for i := range pkgs {
		if !pkgs[i].Standard {
			if _, err := check(&pkgs[i]); err != nil {
				return nil, err
			}
		}
	}
	return &checkedTree{fset: fset, pkgs: order}, nil
}

// testOnlySurface returns, sorted, the keys of the declarations under
// internal/ that no non-test file under surfaceRoots uses:
//   - a func, method, type, var or const no identifier outside its own
//     declaration refers to, where a method also counts as used when it
//     implements an interface method such a file refers to, or one of
//     implicitMethods;
//   - a method of an interface type no such file calls through the
//     interface;
//   - a struct field no such file reads. A composite-literal key, the
//     left side of = or an op-assign, and ++ or -- write a field; a
//     json-tagged field is read by the encoder.
func testOnlySurface(tree *checkedTree) []string {
	// The declarations under internal/, keyed by their object.
	type decl struct {
		key  string
		node ast.Node
	}
	decls := map[types.Object]decl{}
	var fields func(key string, st *ast.StructType, info *types.Info)
	fields = func(key string, st *ast.StructType, info *types.Info) {
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				if inner, ok := f.Type.(*ast.StructType); ok {
					fields(key+"."+n.Name, inner, info)
				}
				if f.Tag != nil {
					if tag, ok := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Lookup("json"); ok && tag != "-" {
						continue
					}
				}
				decls[info.Defs[n]] = decl{key + "." + n.Name, n}
			}
		}
	}
	for _, c := range tree.pkgs {
		if !underRoot(c.lp.Dir, "internal") {
			continue
		}
		for _, f := range c.files {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					if dd.Recv == nil && dd.Name.Name == "init" {
						continue
					}
					key := c.lp.Dir + "."
					if dd.Recv != nil {
						key += receiverName(dd.Recv.List[0].Type) + "."
					}
					decls[c.info.Defs[dd.Name]] = decl{key + dd.Name.Name, dd}
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							switch t := s.Type.(type) {
							case *ast.StructType:
								fields(c.lp.Dir+"."+s.Name.Name, t, c.info)
							case *ast.InterfaceType:
								for _, m := range t.Methods.List {
									for _, n := range m.Names {
										decls[c.info.Defs[n]] = decl{c.lp.Dir + "." + s.Name.Name + "." + n.Name, m}
									}
								}
							}
							decls[c.info.Defs[s.Name]] = decl{c.lp.Dir + "." + s.Name.Name, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[c.info.Defs[n]] = decl{c.lp.Dir + "." + n.Name, s}
								}
							}
						}
					}
				}
			}
		}
	}

	// Every use in a non-test file under the roots, but a field only
	// where it is read, and an interface method also for what it calls.
	used := map[types.Object]bool{}
	var called []*types.Func
	for _, c := range tree.pkgs {
		caller := false
		for _, r := range surfaceRoots {
			caller = caller || underRoot(c.lp.Dir, r)
		}
		if !caller {
			continue
		}
		written := writtenFields(c.files, c.info)
		for id, obj := range c.info.Uses {
			if written[id] {
				continue
			}
			switch o := obj.(type) {
			case *types.Var:
				obj = o.Origin()
			case *types.Func:
				obj = o.Origin()
				if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called = append(called, o)
				}
			}
			if d, ok := decls[obj]; ok && (id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()) {
				used[obj] = true
			}
		}
	}

	var unused []string
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implements(fn, called) {
			continue
		}
		unused = append(unused, d.key)
	}
	sort.Strings(unused)
	return unused
}

// implements reports whether method fn is one of implicitMethods or
// implements one of the interface methods called.
func implements(fn *types.Func, called []*types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if want, ok := implicitMethods[fn.Name()]; ok && signatureShape(sig) == want {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, m := range called {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// signatureShape prints a signature's parameter and result types, without
// names: "(int, string) (error)".
func signatureShape(sig *types.Signature) string {
	var b strings.Builder
	for i, t := range []*types.Tuple{sig.Params(), sig.Results()} {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("(")
		for j := 0; j < t.Len(); j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(t.At(j).Type(), nil))
		}
		b.WriteString(")")
	}
	return b.String()
}

// writtenFields returns the field identifiers files only write: the keys of
// struct composite literals, and the selected field on the left of an
// assignment (:= aside) or an inc/dec statement — and, where that
// field's struct is itself a field held by value, that field too.
func writtenFields(files []*ast.File, info *types.Info) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	var lhs func(e ast.Expr)
	lhs = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				written[e.Sel] = true
				if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					lhs(e.X)
				}
			}
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(e.X).Underlying().(*types.Array); ok {
				lhs(e.X)
			}
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					lhs(e)
				}
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					written[id] = true
				}
			}
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, visit)
	}
	return written
}

// underRoot reports whether dir is root or lies beneath it.
func underRoot(dir, root string) bool {
	return dir == root || strings.HasPrefix(dir, root+"/")
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverName is the base type name of a method receiver: T for T,
// *T, T[P] and *T[P].
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
