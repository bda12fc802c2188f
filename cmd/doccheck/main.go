// Command doccheck is the markdown half of `make docs`: it scans the given
// markdown files for inline links and verifies that
//
//   - every relative link target exists on disk, so README/ROADMAP/docs
//     cross-references cannot rot silently;
//   - every #fragment — same-file (`#selection-vectors`) or cross-file
//     (`VECTORIZATION.md#kernel-catalog`) — resolves to a real heading in
//     the target markdown file, using GitHub's heading-slug rules, so
//     section anchors cannot rot when headings are reworded;
//   - with -lint-catalog, the analyzer catalog in docs/LINT.md cannot drift
//     from the polarisvet registry: every analyzer in lint.Registry() must
//     appear as a backticked table-row name in the catalog, and every
//     catalogued name must still be registered.
//
// External links (with a URL scheme) are accepted without network access; a
// broken reference of any kind is a hard failure.
//
// Usage:
//
//	doccheck [-lint-catalog docs/LINT.md] FILE.md ...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"polaris/internal/lint"
)

// linkRe matches inline markdown links [text](target). Images (![alt](...))
// match too, which is what we want: a broken diagram is still a broken link.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// headingRe matches ATX headings; setext headings are not used in this repo.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*)$`)

// catalogRowRe matches a markdown table row whose first cell is a backticked
// analyzer name — the shape of the docs/LINT.md analyzer catalog.
var catalogRowRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9-]*)`\\s*\\|")

func main() {
	lintCatalog := flag.String("lint-catalog", "",
		"markdown file whose analyzer catalog table must match the polarisvet registry")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-lint-catalog docs/LINT.md] FILE.md ...")
		os.Exit(2)
	}
	broken := 0
	anchors := map[string]map[string]bool{} // md path -> heading slug set
	for _, file := range flag.Args() {
		broken += checkLinks(file, anchors)
	}
	if *lintCatalog != "" {
		broken += checkLintCatalog(*lintCatalog)
	}
	if broken > 0 {
		os.Exit(1)
	}
}

// checkLinks resolves every relative link in one markdown file: the target
// file must exist and a #fragment into a markdown file must name one of its
// headings. anchors caches each target's heading slugs across files. It
// returns the number of broken references.
func checkLinks(file string, anchors map[string]map[string]bool) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	broken, checked, frags := 0, 0, 0
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		path, frag := splitFragment(file, target)
		if path != file {
			checked++
			if _, err := os.Stat(path); err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %s: broken link %q (no file %s)\n", file, target, path)
				broken++
				continue
			}
		}
		if frag != "" && strings.HasSuffix(path, ".md") {
			frags++
			slugs, err := headingSlugs(anchors, path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", file, err)
				broken++
			} else if !slugs[frag] {
				fmt.Fprintf(os.Stderr, "doccheck: %s: broken anchor %q (no heading #%s in %s)\n",
					file, target, frag, path)
				broken++
			}
		}
	}
	fmt.Printf("doccheck: %s: %d relative links, %d anchors checked\n", file, checked, frags)
	return broken
}

// checkLintCatalog compares the backticked first-column names in the catalog
// table of the given markdown file against lint.Registry(), both directions:
// a registered analyzer missing from the docs, or a documented analyzer that
// is no longer registered, is a failure.
func checkLintCatalog(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	// Only the table under the "Analyzer catalog" heading is the registry
	// mirror; other tables (the annotation-key table, say) may also have
	// backticked first cells.
	documented := map[string]bool{}
	inCatalog := false
	for _, line := range strings.Split(string(data), "\n") {
		if m := headingRe.FindStringSubmatch(line); m != nil {
			inCatalog = strings.EqualFold(strings.TrimSpace(m[1]), "analyzer catalog")
			continue
		}
		if !inCatalog {
			continue
		}
		if m := catalogRowRe.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %s: no analyzer catalog table found\n", path)
		return 1
	}
	bad := 0
	registered := map[string]bool{}
	for _, a := range lint.Registry() {
		registered[a.Name] = true
		if !documented[a.Name] {
			fmt.Fprintf(os.Stderr, "doccheck: %s: analyzer %q is in the polarisvet registry but missing from the catalog table\n",
				path, a.Name)
			bad++
		}
	}
	names := make([]string, 0, len(documented))
	for name := range documented {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !registered[name] {
			fmt.Fprintf(os.Stderr, "doccheck: %s: catalog lists %q, which is not in the polarisvet registry\n",
				path, name)
			bad++
		}
	}
	fmt.Printf("doccheck: %s: %d catalog entries checked against %d registered analyzers\n",
		path, len(documented), len(registered))
	return bad
}

// splitFragment resolves a link target against the linking file's directory
// and separates the #fragment. A pure "#frag" target points at file itself.
func splitFragment(from, target string) (path, frag string) {
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target, frag = target[:i], target[i+1:]
	}
	if target == "" {
		return from, frag
	}
	return filepath.Join(filepath.Dir(from), target), frag
}

// headingSlugs returns (caching in cache) the set of GitHub-style anchor
// slugs for the headings of the markdown file at path.
func headingSlugs(cache map[string]map[string]bool, path string) (map[string]bool, error) {
	if s, ok := cache[path]; ok {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := slugify(m[1])
		// GitHub de-duplicates repeated headings as slug, slug-1, slug-2...
		if n := counts[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		counts[slug]++
	}
	cache[path] = slugs
	return slugs, nil
}

// slugify applies GitHub's heading-anchor algorithm: strip markdown
// formatting, lowercase, drop everything but letters/digits/spaces/hyphens/
// underscores, then turn spaces into hyphens.
func slugify(h string) string {
	h = strings.ReplaceAll(h, "`", "")
	h = linkRe.ReplaceAllStringFunc(h, func(l string) string {
		return l[1:strings.IndexByte(l, ']')] // keep link text, drop target
	})
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
