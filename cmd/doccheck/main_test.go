package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polaris/internal/lint"
)

// writeDocs writes name → content into a fresh directory and returns it.
func writeDocs(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCheckLinks(t *testing.T) {
	target := strings.Join([]string{
		"# Guide",
		"## Setup",
		"## Setup", // GitHub anchors the repeat as #setup-1
		"```sh",
		"# not-a-heading",
		"```",
		"## `Code` and [link](x.md)",
	}, "\n")
	cases := []struct {
		name, doc string
		broken    int
	}{
		{"present file", "[g](guide.md)", 0},
		{"missing file", "[g](gone.md)", 1},
		{"heading anchor", "[s](guide.md#setup) [c](guide.md#code-and-link)", 0},
		{"missing anchor", "[s](guide.md#teardown)", 1},
		{"duplicate heading slug", "[s](guide.md#setup-1)", 0},
		{"past the last duplicate", "[s](guide.md#setup-2)", 1},
		{"heading inside a code fence", "[n](guide.md#not-a-heading)", 1},
		{"same-file anchor", "# Top\n[t](#top) [u](#bottom)", 1},
		{"external link", "[e](https://example.com/x.md#nowhere)", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeDocs(t, map[string]string{"guide.md": target, "doc.md": c.doc})
			if got := checkLinks(filepath.Join(dir, "doc.md"), map[string]map[string]bool{}); got != c.broken {
				t.Fatalf("%q: %d broken references, want %d", c.doc, got, c.broken)
			}
		})
	}
}

func TestCheckLintCatalog(t *testing.T) {
	var rows []string
	for _, a := range lint.Registry() {
		rows = append(rows, "| `"+a.Name+"` | checks |")
	}
	if len(rows) < 2 {
		t.Fatalf("registry has %d analyzers; the drift cases need two", len(rows))
	}
	catalog := func(rows []string) string {
		return "# Lint\n\n## Analyzer catalog\n\n| Name | What |\n|---|---|\n" + strings.Join(rows, "\n") +
			"\n\n## Annotation keys\n\n| `not-an-analyzer` | ignored: another table |\n"
	}
	cases := []struct {
		name   string
		rows   []string
		broken int
	}{
		{"in sync", rows, 0},
		{"registered analyzer missing from the docs", rows[1:], 1},
		{"documented analyzer no longer registered", append(append([]string{}, rows...), "| `retired` | gone |"), 1},
		{"empty catalog table", nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeDocs(t, map[string]string{"LINT.md": catalog(c.rows)})
			if got := checkLintCatalog(filepath.Join(dir, "LINT.md")); got != c.broken {
				t.Fatalf("%d findings, want %d", got, c.broken)
			}
		})
	}
}
