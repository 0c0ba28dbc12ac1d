package lrfcsvm

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameTheTree holds the documents that describe the tree as it is
// (README.md, doc.go and EXPERIMENTS.md) to the tree. CHANGES.md and
// ROADMAP.md are exempt: history and plans name deleted code on purpose.
//
//   - Every repository path they name under internal/, cmd/, bench/ or
//     examples/ exists.
//   - They give no file.go:N line reference; those go stale with the next
//     edit.
//   - Every pkg.Name and pkg.Type.Member they name, where pkg is a package
//     under internal/ or cmd/, resolves in that package to a declaration, a
//     method, a struct field, an interface method or a test function. In the
//     Markdown files that is every such name in backticks; doc.go, a Go
//     comment, has no backticks, so there it is every such name.
//   - Every citation of an EXPERIMENTS.md heading in a Go file, the Makefile,
//     ci.yml or README.md (the file name, then the title in double quotes)
//     resolves to a heading of EXPERIMENTS.md or to a line of its history
//     that starts "- PR <n>".
func TestDocsNameTheTree(t *testing.T) {
	pkgs := declaredPackages(t)
	metrics := benchmarkMetrics(t)
	docs := map[string]string{}
	for _, name := range []string{"README.md", "doc.go", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}

	pathRE := regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-]|\./|lrfcsvm/)((?:internal|cmd|bench|examples)/[A-Za-z0-9_./-]*)`)
	lineRefRE := regexp.MustCompile(`[A-Za-z0-9_]+\.go:[0-9]+`)
	backtickRE := regexp.MustCompile("`[^`\n]+`")
	nameRE := regexp.MustCompile(`(?:^|[^A-Za-z0-9_./*-])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	for _, file := range []string{"README.md", "doc.go", "EXPERIMENTS.md"} {
		text := docs[file]
		for _, m := range pathRE.FindAllStringSubmatch(text, -1) {
			p := strings.TrimRight(m[1], ".")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", file, m[1])
			}
		}
		for _, m := range lineRefRE.FindAllString(text, -1) {
			t.Errorf("%s gives the line reference %s", file, m)
		}
		spans := backtickRE.FindAllString(text, -1)
		if file == "doc.go" {
			spans = []string{text}
		}
		for _, span := range spans {
			for _, m := range nameRE.FindAllStringSubmatch(span, -1) {
				pkg, ok := pkgs[m[1]]
				ref := m[1] + "." + m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !ok || metrics[ref] || isFileName(m[2]) {
					continue
				}
				if !pkg.resolves(m[2], m[3]) {
					t.Errorf("%s names %s, which %s does not declare", file, ref, pkg.dir)
				}
			}
		}
	}

	titles := experimentTitles(docs["EXPERIMENTS.md"])
	citeRE := regexp.MustCompile("EXPERIMENTS\\.md`?(?:\\s|//|#)*\"([^\"\n]+)\"")
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && path != ".github" && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "Makefile" || path == "README.md" || path == filepath.Join(".github", "workflows", "ci.yml")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range citeRE.FindAllStringSubmatch(string(b), -1) {
			if !titles[m[1]] {
				t.Errorf("%s cites EXPERIMENTS.md %q, which is neither a heading nor a PR line there", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredNames is what one package declares, test files included.
type declaredNames struct {
	dir     string
	top     map[string]bool
	members map[string]map[string]bool // type -> methods, fields, interface methods
}

func (p declaredNames) resolves(name, member string) bool {
	if member == "" {
		return p.top[name]
	}
	return p.members[name][member]
}

func (p declaredNames) addMember(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// declaredPackages parses every package directly under internal/ and cmd/
// (testdata excluded) and indexes it by its directory's name.
func declaredPackages(t *testing.T) map[string]declaredNames {
	t.Helper()
	pkgs := map[string]declaredNames{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			dir := filepath.Dir(path)
			pkg, ok := pkgs[filepath.Base(dir)]
			if !ok {
				pkg = declaredNames{dir: dir, top: map[string]bool{}, members: map[string]map[string]bool{}}
				pkgs[filepath.Base(dir)] = pkg
			} else if pkg.dir != dir {
				t.Fatalf("%s and %s share a name", pkg.dir, dir)
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						pkg.top[decl.Name.Name] = true
					} else {
						pkg.addMember(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								pkg.top[n.Name] = true
							}
						case *ast.TypeSpec:
							pkg.top[spec.Name.Name] = true
							var fields *ast.FieldList
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, field := range fields.List {
								for _, n := range field.Names {
									pkg.addMember(spec.Name.Name, n.Name)
								}
								if len(field.Names) == 0 {
									pkg.addMember(spec.Name.Name, receiverType(field.Type))
								}
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// receiverType names the type of a receiver or an embedded field: T, *T,
// T[P], pkg.T.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// isFileName reports whether a name after "pkg." is a file extension, as
// in storage.go or features.bin.
func isFileName(name string) bool {
	switch name {
	case "go", "s", "md", "json", "bin", "snap", "wal", "txt":
		return true
	}
	return false
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares. Names
// such as core.select_ms read like pkg.Name but name a measurement.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// experimentTitles returns what an EXPERIMENTS.md citation may name: every
// heading's text and the "PR <n>" that starts each history line.
func experimentTitles(text string) map[string]bool {
	titles := map[string]bool{}
	prRE := regexp.MustCompile(`^- (PR [0-9]+)\b`)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			titles[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
		if m := prRE.FindStringSubmatch(line); m != nil {
			titles[m[1]] = true
		}
	}
	return titles
}
