package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fastlsa/internal/journal"
)

// TestDocsNameEverything checks that docs/ names, in full, every metric
// family a server with a journal and a corpus exposes, every flag main.go
// declares and every route the server registers.
func TestDocsNameEverything(t *testing.T) {
	docs := readDocs(t)

	cfg := serverConfig{DefaultWorkers: 1, DataDir: t.TempDir(), JournalFsync: journal.FsyncNever}
	cfg.Corpus, _, _ = testCorpus(t, 4)
	s, err := newServerDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(s)
	t.Cleanup(func() {
		h.Close()
		_ = s.shutdown(context.Background())
	})
	for family := range metricTypes(t, h.URL) {
		if !named(docs, `\w`, family, `\w`) {
			t.Errorf("metric family %s is not named in docs/", family)
		}
	}

	flags, routes := declaredFlagsAndRoutes(t)
	if len(flags) == 0 || len(routes) == 0 {
		t.Fatalf("found %d flags and %d routes in the source", len(flags), len(routes))
	}
	for _, f := range flags {
		if !named(docs, `\w-`, "-"+f, `\w-`) {
			t.Errorf("flag -%s is not named in docs/", f)
		}
	}
	for _, r := range routes {
		if !named(docs, `\w`, r, `\w/{`) {
			t.Errorf("route %q is not named in docs/", r)
		}
	}
}

// readDocs returns the text of every Markdown file under docs/.
func readDocs(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(files) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	var b strings.Builder
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// named reports whether text contains name with no character of the
// class before before it and none of the class after after it, so a name
// is not found inside a longer one.
func named(text, before, name, after string) bool {
	re := regexp.MustCompile(`(?:^|[^` + before + `])` + regexp.QuoteMeta(name) + `(?:$|[^` + after + `])`)
	return re.MatchString(text)
}

// declaredFlagsAndRoutes parses the package's source for the flag names
// main.go declares (flag.Kind("name", ...)) and the route patterns the
// server registers (s.handle(mux, "PATTERN", ...)).
func declaredFlagsAndRoutes(t *testing.T) (flags, routes []string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	literal := func(e ast.Expr) string {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return ""
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				switch {
				case !ok:
				case recv.Name == "flag" && filepath.Base(name) == "main.go" && len(call.Args) > 0:
					if f := literal(call.Args[0]); f != "" {
						flags = append(flags, f)
					}
				case recv.Name == "s" && sel.Sel.Name == "handle" && len(call.Args) > 1:
					if r := literal(call.Args[1]); r != "" {
						routes = append(routes, r)
					}
				}
				return true
			})
		}
	}
	return flags, routes
}
