package ampsinf

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// coreOnly are the functions that wire a deployment to its cloud:
// deploying a plan and serving a trace on it. Outside tests only
// internal/core — core.Framework.Deploy and core.Service.Serve — calls
// them, so every deployment reports to the framework's tracer, registry
// and series. bench/ measures the layers under core and may call them.
var coreOnly = []string{"ampsinf/internal/coordinator.Deploy", "ampsinf/internal/serving.Serve"}

// coreOnlyCallers are the trees whose non-test files may call coreOnly.
var coreOnlyCallers = []string{"internal/core", "bench"}

// TestOnlyCoreDeploys fails on each non-test file outside
// coreOnlyCallers that refers to a coreOnly function.
func TestOnlyCoreDeploys(t *testing.T) {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range layeringViolations(tree) {
		t.Error(p)
	}
}

// layeringViolations lists, sorted, each use of a coreOnly function in
// a package outside coreOnlyCallers, as "file:line: uses pkg.Func".
func layeringViolations(tree *checkedTree) []string {
	banned := map[string]bool{}
	for _, f := range coreOnly {
		banned[f] = true
	}
	var problems []string
	for _, c := range tree.pkgs {
		allowed := false
		for _, r := range coreOnlyCallers {
			allowed = allowed || underRoot(c.lp.Dir, r)
		}
		if allowed {
			continue
		}
		for id, obj := range c.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			if name := fn.Pkg().Path() + "." + fn.Name(); banned[name] {
				pos := tree.fset.Position(id.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: uses %s.%s; deploy and serve through core.Framework",
					pos.Filename, pos.Line, fn.Pkg().Name(), fn.Name()))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// TestLayeringCheckerFixture runs the layering check on an in-memory
// tree: core and bench may deploy and serve, a command may not, and a
// method that shares a banned function's name is not that function.
func TestLayeringCheckerFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/coordinator/c.go": {Data: []byte(`package coordinator

type Deployment struct{}

func Deploy() *Deployment { return nil }

func (*Deployment) Deploy() {}
`)},
		"internal/serving/s.go": {Data: []byte(`package serving

func Serve() {}
`)},
		"internal/core/core.go": {Data: []byte(`package core

import (
	"ampsinf/internal/coordinator"
	"ampsinf/internal/serving"
)

func Run() { coordinator.Deploy(); serving.Serve() }
`)},
		"bench/b.go": {Data: []byte(`package b

import "ampsinf/internal/coordinator"

func B() { coordinator.Deploy() }
`)},
		"cmd/c/main.go": {Data: []byte(`package main

import (
	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/serving"
)

func main() {
	core.Run()
	d := coordinator.Deploy()
	d.Deploy()
	serve := serving.Serve
	serve()
}
`)},
	}
	pkgs := []listedPackage{
		{ImportPath: "ampsinf/internal/coordinator", Dir: "internal/coordinator", GoFiles: []string{"c.go"}},
		{ImportPath: "ampsinf/internal/serving", Dir: "internal/serving", GoFiles: []string{"s.go"}},
		{ImportPath: "ampsinf/internal/core", Dir: "internal/core", GoFiles: []string{"core.go"}},
		{ImportPath: "ampsinf/bench", Dir: "bench", GoFiles: []string{"b.go"}},
		{ImportPath: "ampsinf/cmd/c", Dir: "cmd/c", GoFiles: []string{"main.go"}},
	}
	tree, err := typeCheck(fsys, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/c/main.go:11: uses coordinator.Deploy; deploy and serve through core.Framework",
		"cmd/c/main.go:13: uses serving.Serve; deploy and serve through core.Framework",
	}
	if got := layeringViolations(tree); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("checker listed:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
