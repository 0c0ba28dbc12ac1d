package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryRouteHasAClient enforces the rule for what Handler registers: a
// route is something a program of the module requests. Every pattern handed
// to mux.HandleFunc in server.go (the calls `make loc` counts) must occur, as
// a whole path, in a string literal of non-test Go under cmd/, examples/ or
// bench/. A handler is a root TestInternalDeclarationsReachable cannot see
// through — whatever it calls counts as reached — so a route nothing requests
// keeps its whole lane alive; there is no allowlist, such a route is deleted
// with what only it reaches.
func TestEveryRouteHasAClient(t *testing.T) {
	fset := token.NewFileSet()
	inspect := func(path string, visit func(ast.Node)) {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			visit(n)
			return true
		})
	}

	unrequested := make(map[string]*regexp.Regexp) // route -> what a literal requesting it looks like
	inspect("server.go", func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "HandleFunc" {
			return
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s: route pattern is not a string literal", fset.Position(call.Pos()))
		}
		route, _ := strconv.Unquote(lit.Value)
		// "/api/sessions/judge" does not request "/api/sessions".
		unrequested[route] = regexp.MustCompile(regexp.QuoteMeta(route) + `($|[^/\w])`)
	})
	if len(unrequested) == 0 {
		t.Fatal("server.go registers no route: the test no longer reads Handler")
	}

	for _, root := range []string{"../../cmd", "../../examples", "../../bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			inspect(path, func(n ast.Node) {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return
				}
				s, _ := strconv.Unquote(lit.Value)
				for route, re := range unrequested {
					if re.MatchString(s) {
						delete(unrequested, route)
					}
				}
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for route := range unrequested {
		t.Errorf("no program under cmd/, examples/ or bench/ requests %s: delete the route and what only it reaches", route)
	}
}
