// Command ctxcheck enforces the query-lifecycle contract introduced in
// the lifecycle PR: every exported entry point that executes, runs, or
// scans on behalf of a query must accept a context.Context as its first
// parameter, so deadlines and cancellation propagate end to end instead
// of dying at the first layer that forgot to thread them.
//
// It walks the non-test Go files under the given roots (default:
// internal/) and flags exported functions and methods that are named
// "Run" or "Scan", or whose name starts with "Execute" or ends with
// "Join", yet do not take a context.Context first. Findings are printed
// one per line as file:line: message, and the exit status is nonzero
// when any exist — the same shape as go vet, so CI can run it as an
// extra vet pass.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal"}
	}
	findings := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := checkFile(path)
			findings += n
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctxcheck: %v\n", err)
			os.Exit(2)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ctxcheck: %d lifecycle entry point(s) missing a context.Context first parameter\n", findings)
		os.Exit(1)
	}
}

// checkFile reports every lifecycle-named exported func in one file
// whose signature breaks the context-first contract.
func checkFile(path string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	findings := 0
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() || !lifecycleName(fn.Name.Name) {
			continue
		}
		if takesContextFirst(fn.Type) {
			continue
		}
		pos := fset.Position(fn.Pos())
		fmt.Printf("%s:%d: exported %s %s must take a context.Context first parameter\n",
			pos.Filename, pos.Line, declKind(fn), fn.Name.Name)
		findings++
	}
	return findings, nil
}

// lifecycleName says whether the name marks a query-lifecycle entry
// point: Run and Scan exactly, any Execute* variant, or any *Join.
func lifecycleName(name string) bool {
	return name == "Run" || name == "Scan" || strings.HasPrefix(name, "Execute") ||
		strings.HasSuffix(name, "Join")
}

func declKind(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "method"
	}
	return "func"
}

// takesContextFirst matches a first parameter of type context.Context,
// by syntax — the check runs without type information.
func takesContextFirst(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context"
}
