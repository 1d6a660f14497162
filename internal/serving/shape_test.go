package serving

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// maxFuncLines bounds every function body in the package. The two
// scheduler loops this package used to carry were 394 and 564 lines of
// interleaved admission, execution and settlement; the bound keeps that
// mega-loop from regrowing.
const maxFuncLines = 150

func TestServingFunctionLength(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				name := "func literal"
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body, name = fn.Body, fn.Name.Name
				case *ast.FuncLit:
					body = fn.Body
				}
				if body == nil {
					return true
				}
				checked++
				start, end := fset.Position(body.Lbrace), fset.Position(body.Rbrace)
				if lines := end.Line - start.Line + 1; lines > maxFuncLines {
					t.Errorf("%s:%d: %s body is %d lines (max %d)", start.Filename, start.Line, name, lines, maxFuncLines)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("parsed no functions")
	}
}
