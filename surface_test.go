package ampsinf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// surfaceRoots are the trees whose non-test files count as callers.
// bench/ is its own module but calls into internal/ like any other
// caller.
var surfaceRoots = []string{"internal", "cmd", "examples", "bench"}

// testOnlyAllowed names the exported declarations under internal/ that
// only _test.go files use and stay anyway, each with the reason. A key
// is the declaring directory, then the receiver type for a method, then
// the name.
var testOnlyAllowed = map[string]string{
	"internal/obs.ValidateTree":                  "span-tree specification shared by obs, coordinator and serving tests",
	"internal/cloud/pricing.LambdaExecutionCost": "closed-form reference for the billing meter, shared by billing, lambda and experiments tests",
	"internal/tensor.SetMaxWorkers":              "pins the kernel worker count in tensor, nn/zoo and core tests",
	"internal/miqp.BruteForce":                   "exhaustive oracle the branch-and-bound is checked against in miqp and optimizer tests",
	"internal/miqp.SolveOneHot":                  "reference one-hot solver the node-count and property tests compare against",
	"internal/cloud/s3.Store.TotalBytes":         "storage-conservation check shared by s3, coordinator and serving tests",
	"internal/cloud/lambda.Platform.Functions":   "leak check (no function left after teardown) shared by lambda, coordinator and core tests",
	"internal/cloud/faults.Injector.InStorm":     "storm-window specification shared by faults and experiments tests",
}

// TestExportedNamesHaveProductionCallers fails on an exported func,
// method, type, var or const declared in a non-test file under
// internal/ whose name no non-test file uses outside its own
// declaration — code only tests reach — unless testOnlyAllowed names it.
// It fails on a stale allowlist entry too.
func TestExportedNamesHaveProductionCallers(t *testing.T) {
	unused, err := testOnlyExports(os.DirFS("."), surfaceRoots)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(unused, testOnlyAllowed) {
		t.Error(p)
	}
}

// surfaceProblems reports each listed name the allowlist does not
// name, and each allowlist entry that is not listed or has no reason.
func surfaceProblems(unused []string, allowed map[string]string) []string {
	var problems []string
	listed := map[string]bool{}
	for _, key := range unused {
		listed[key] = true
		if _, ok := allowed[key]; !ok {
			problems = append(problems, key+": exported, but only tests use it; delete it, move it into its one test package, or allowlist it with a reason")
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

type T struct{ next *T }

func (t *T) Used() int      { return 1 }
func (t *T) OnlyTests() int { return 0 }
func (t *T) Recur() int     { return t.Recur() }

func Helper() {}

const (
	Kept = iota
	Dropped
)

var Shared, Unshared int

type unexported struct{}

func (unexported) Exported() {}

func lower() {}
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

func use() { _ = new(T).OnlyTests(); Helper(); _ = Dropped; _ = Unshared }
`)},
		"internal/a/testdata/x.go": {Data: []byte(`package x

func F() { a.Helper() }
`)},
		"cmd/c/main.go": {Data: []byte(`package main

func main() { var t a.T; _ = t.Used(); _ = a.Kept; _ = a.Shared; _ = unexported{} }
`)},
		"bench/b.go": {Data: []byte(`package b

type Other struct{}

func (Other) Exported() {}
func (Other) Recur() int { return 0 }
`)},
	}
	got, err := testOnlyExports(fsys, []string{"internal", "cmd", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	// T is used by its own methods' receivers; Exported's two
	// declarations do not count as uses of each other; Recur calls only
	// itself; the testdata file is no caller.
	want := []string{
		"internal/a.Dropped",
		"internal/a.Helper",
		"internal/a.T.OnlyTests",
		"internal/a.T.Recur",
		"internal/a.Unshared",
		"internal/a.unexported.Exported",
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
		"internal/a.T.Recur: exported, but only tests use it; delete it, move it into its one test package, or allowlist it with a reason",
		"internal/a.Unshared: exported, but only tests use it; delete it, move it into its one test package, or allowlist it with a reason",
		"internal/a.unexported.Exported: exported, but only tests use it; delete it, move it into its one test package, or allowlist it with a reason",
	}
	if problems := surfaceProblems(got, allowed); strings.Join(problems, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(wantProblems, "\n"))
	}

	bad := fstest.MapFS{"internal/a/a.go": {Data: []byte("package a\nfunc {")}}
	if _, err := testOnlyExports(bad, []string{"internal"}); err == nil {
		t.Error("a file that does not parse: no error")
	}
}

// testOnlyExports parses every non-test .go file under roots (testdata
// directories skipped) and returns, sorted, the keys of the exported
// declarations under internal/ whose name no identifier outside that
// declaration uses. A declaring name is never a use, so two unused
// declarations of one name do not keep each other.
func testOnlyExports(fsys fs.FS, roots []string) ([]string, error) {
	type decl struct {
		key, name string
		node      ast.Node
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	for _, root := range roots {
		err := fs.WalkDir(fsys, root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return fs.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			if root != "internal" {
				return nil
			}
			dir := path.Dir(p)
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					if !dd.Name.IsExported() {
						continue
					}
					key := dir + "."
					if dd.Recv != nil {
						key += receiverName(dd.Recv.List[0].Type) + "."
					}
					decls = append(decls, decl{key + dd.Name.Name, dd.Name.Name, dd})
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls = append(decls, decl{dir + "." + s.Name.Name, s.Name.Name, s})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls = append(decls, decl{dir + "." + n.Name, n.Name, s})
								}
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	declaring := map[token.Pos]bool{}
	for _, f := range files {
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				declaring[dd.Name.Pos()] = true
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declaring[s.Name.Pos()] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declaring[n.Pos()] = true
						}
					}
				}
			}
		}
	}
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && ast.IsExported(id.Name) && !declaring[id.Pos()] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var unused []string
	for _, d := range decls {
		used := false
		for _, p := range uses[d.name] {
			if p < d.node.Pos() || p >= d.node.End() {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

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
