//go:build !race

// The allocation gate counts what the whole process allocates, and the race
// runtime allocates on its own account while it runs, so under -race the
// count moves with scheduling and the gate fails about one run in four. It
// runs without the race detector only.

package manifest

import (
	"fmt"
	"testing"
)

// TestAdvanceCostIsIndependentOfHistory: a state holds its live files, not
// what the table removed, so advancing the cache by a commit that replaces
// one file allocates the same bytes after 10 prior commits as after 1,000 —
// each of which removed a file.
func TestAdvanceCostIsIndependentOfHistory(t *testing.T) {
	const measured = 20
	advance := func(c *SnapshotCache, seq int64) {
		c.Advance(1, seq, []Action{removeData(fmt.Sprintf("f%d", seq-1)), addData(fmt.Sprintf("f%d", seq), 10)})
	}
	cost := func(history int) uint64 {
		c := NewSnapshotCache()
		s := NewTableState()
		must(t, s.Apply(1, []Action{addData("f1", 10)}))
		c.Put(1, s)
		c.Advance(1, 1, nil)
		seq := int64(2)
		for ; seq <= int64(history)+1; seq++ {
			advance(c, seq)
		}
		bytes := allocatedBy(func() {
			for i := 0; i < measured; i++ {
				advance(c, seq)
				seq++
			}
		})
		if c.Get(1, seq-1) == nil {
			t.Fatalf("cache lost the table after %d commits", seq-1)
		}
		return bytes / measured
	}
	short, long := cost(10), cost(1000)
	if long > short+64 {
		t.Fatalf("one Advance allocates %d bytes after 10 commits but %d after 1,000: the history is copied", short, long)
	}
}
