package sql

import (
	"strings"

	"polaris/internal/colfile"
	"polaris/internal/manifest"
)

// tableStats is the planner's view of one table snapshot: the live row count
// from the manifest plus per-column sketches folded across the live files.
// Statistics are a pure fold over FileEntry.Sketches — DML rewrites the
// entries it touches, so no separate ANALYZE pass exists or is needed.
type tableStats struct {
	// rows is the visible row count (manifest LiveRows sum).
	rows int64
	// cols maps lower-cased column names to the table-level merged sketch.
	// Empty when any live file predates sketches — the estimator then falls
	// back to default selectivities.
	cols map[string]colfile.ColSketch
}

// collectStats folds a table snapshot into planner statistics. Row counts
// come from the manifest; NDV and min/max come from merging the per-file
// column sketches. A snapshot containing any file sealed without sketches
// yields row counts only: partial min/max would silently misestimate ranges,
// so the fold is all-or-nothing per table.
func collectStats(state *manifest.TableState, schema colfile.Schema) *tableStats {
	ts := &tableStats{rows: state.TotalRows(), cols: map[string]colfile.ColSketch{}}
	merged := make([]colfile.ColSketch, len(schema))
	for _, f := range state.LiveFiles() {
		if len(f.Sketches) != len(schema) {
			return ts // pre-sketch file in the snapshot: rows only
		}
		for i := range merged {
			merged[i].Merge(f.Sketches[i])
		}
	}
	for i, fld := range schema {
		ts.cols[strings.ToLower(fld.Name)] = merged[i]
	}
	return ts
}

// colSketch returns the merged sketch for a column (case-insensitive), if
// the table has complete statistics.
func (ts *tableStats) colSketch(name string) (colfile.ColSketch, bool) {
	s, ok := ts.cols[strings.ToLower(name)]
	return s, ok
}
