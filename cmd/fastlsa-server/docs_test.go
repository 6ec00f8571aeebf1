package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
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
// declares and every route the server registers; and, the other way round,
// that every fastlsa_* family and every METHOD /v1/... route docs/ names
// exists on that server.
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
	families := metricTypes(t, h.URL)
	for family := range families {
		if !named(docs, `\w`, family, `\w`) {
			t.Errorf("metric family %s is not named in docs/", family)
		}
	}
	for _, m := range docFamilies.FindAllStringSubmatch(docs, -1) {
		if !exposes(families, m[1]) {
			t.Errorf("docs/ names metric %s, which the server does not expose", m[1])
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
	mux := http.NewServeMux()
	for _, r := range routes {
		if !named(docs, `\w`, r, `\w/{`) {
			t.Errorf("route %q is not named in docs/", r)
		}
		mux.Handle(r, http.NotFoundHandler())
	}
	for _, m := range docRoutes.FindAllStringSubmatch(docs, -1) {
		if _, pattern := mux.Handler(httptest.NewRequest(m[1], m[2], nil)); pattern == "" {
			t.Errorf("docs/ names route %q, which the server does not register", m[0])
		}
	}
}

// docFamilies matches a fastlsa_* metric name in the docs, not inside a
// longer identifier or a recording rule's level:metric:operation name. A
// name ending in "_" is a prefix ("fastlsa_go_*").
var docFamilies = regexp.MustCompile(`(?:^|[^\w:])(fastlsa_[a-z0-9_]+)`)

// docRoutes matches a METHOD /v1/... route in the docs; the path may be a
// pattern ("/v1/jobs/{id}") or a concrete request path.
var docRoutes = regexp.MustCompile(`\b(GET|POST|PUT|PATCH|DELETE) (/v1/[\w/{}-]*)`)

// exposes reports whether families contains name, as a family, as one of a
// histogram's _bucket/_sum/_count series, or, for a name ending in "_", as
// a prefix.
func exposes(families map[string]string, name string) bool {
	if strings.HasSuffix(name, "_") {
		for f := range families {
			if strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}
	if _, ok := families[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && families[base] == "histogram" {
			return true
		}
	}
	return false
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
