package polaris

import (
	"os"
	"strings"
	"testing"
)

// fencedBlocks returns the ``` blocks of a markdown text in order: the info
// string after the opening fence, and the body.
func fencedBlocks(md string) (langs, bodies []string) {
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") {
			continue
		}
		lang := strings.TrimPrefix(lines[i], "```")
		var body []string
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
			body = append(body, lines[i])
		}
		langs, bodies = append(langs, lang), append(bodies, strings.Join(body, "\n"))
	}
	return langs, bodies
}

// TestPlannerDocExplainExample keeps the worked example in docs/PLANNER.md
// "EXPLAIN" honest: the first fenced block of that section is a statement over
// the planner fixture (openPlannerDB), the second is what EXPLAIN prints for
// it, and the two are compared line for line.
func TestPlannerDocExplainExample(t *testing.T) {
	doc, err := os.ReadFile("docs/PLANNER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## EXPLAIN\n")
	if !ok {
		t.Fatal(`docs/PLANNER.md has no "## EXPLAIN" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	langs, bodies := fencedBlocks(section)
	if len(bodies) < 2 || langs[0] != "sql" {
		t.Fatalf("the EXPLAIN section must open with a ```sql statement block followed by its plan block; found blocks %q", langs)
	}

	db := openPlannerDB(t, 4, 0)
	defer db.Close()
	r, err := db.Query("EXPLAIN " + bodies[0])
	if err != nil {
		t.Fatalf("EXPLAIN of the documented statement: %v", err)
	}
	want := strings.Split(bodies[1], "\n")
	if r.Len() != len(want) {
		t.Errorf("EXPLAIN prints %d lines, docs/PLANNER.md shows %d", r.Len(), len(want))
	}
	for i := 0; i < r.Len() && i < len(want); i++ {
		if got := r.Row(i)[0].(string); got != want[i] {
			t.Errorf("line %d:\n EXPLAIN: %s\n    docs: %s", i+1, got, want[i])
		}
	}
}
