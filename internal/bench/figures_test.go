package bench

import (
	"testing"
	"time"
)

// These tests assert the *shapes* the paper reports for each figure at a tiny
// scale; cmd/benchrunner prints the full tables at any -scale.

func TestFig7SubLinearScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	rows := Fig7(0.2)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Load time grows sub-linearly: time(next)/time(prev) << 10 for the
	// larger scales where parallelism is available.
	for i := 1; i < len(rows); i++ {
		ratio := float64(rows[i].LoadTime) / float64(rows[i-1].LoadTime)
		if ratio >= 10 {
			t.Fatalf("scale %s: time ratio %.1f not sub-linear (times: %v -> %v)",
				rows[i].Label, ratio, rows[i-1].LoadTime, rows[i].LoadTime)
		}
	}
	// Resource factor grows with scale.
	if rows[4].ResourceFactor <= rows[1].ResourceFactor {
		t.Fatalf("resources did not grow: %+v", rows)
	}
}

func TestFig8ElasticBeatsBoundedAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	rows := Fig8(0.2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, big := rows[0], rows[1]
	// At the 1TB proxy scale the bounded topology is adequate: roughly equal.
	r := float64(small.BoundedTime) / float64(small.ElasticTime)
	if r > 2.0 || r < 0.5 {
		t.Fatalf("1TB bounded/elastic = %.2f, want ~1", r)
	}
	// At 10TB the bounded topology is capped: elastic clearly wins.
	if big.BoundedTime <= big.ElasticTime {
		t.Fatalf("10TB bounded (%v) not slower than elastic (%v)", big.BoundedTime, big.ElasticTime)
	}
	gain := float64(big.BoundedTime) / float64(big.ElasticTime)
	if gain < 1.5 {
		t.Fatalf("10TB elastic gain = %.2f, want >= 1.5", gain)
	}
	if big.ElasticRes <= big.BoundedRes {
		t.Fatalf("elastic did not use more resources: %+v", big)
	}
}

func TestFig9ConcurrentLoadBarelyAffectsQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	rows := Fig9(0.1)
	if len(rows) != 22 {
		t.Fatalf("rows = %d", len(rows))
	}
	var iso, conc time.Duration
	for _, r := range rows {
		if r.Isolated <= 0 {
			t.Fatalf("Q%d isolated time zero", r.Query)
		}
		iso += r.Isolated
		conc += r.Concurrent
	}
	// Paper: results hold even with concurrent load; allow modest overhead.
	ratio := float64(conc) / float64(iso)
	if ratio > 1.6 {
		t.Fatalf("concurrent/isolated = %.2f, want near 1", ratio)
	}
}

func TestFig10CompactionRestoresGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	res := Fig10(0.2)
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	sawRed := false
	for _, s := range res.Timeline {
		if !s.Healthy {
			sawRed = true
		}
	}
	if !sawRed {
		t.Fatal("DM never degraded storage health; thresholds miscalibrated")
	}
	if res.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	// final SU sample: all tables green again
	last := res.Timeline[len(res.Timeline)-1].Phase
	for _, s := range res.Timeline {
		if s.Phase == last && !s.Healthy {
			t.Fatalf("table %s still unhealthy at %s", s.Table, s.Phase)
		}
	}
}

// TestFig11CheckpointWhenReplayOutweighsCheckpoint pins the STO's checkpoint
// rule over the WP1 phases: per table, each checkpoint is superseded at the
// next one's sequence and exactly one stays open; each folds manifests that
// weigh at least the previous checkpoint (or, for the first, the table's
// first manifest), and without its newest folded manifest they would not
// have.
func TestFig11CheckpointWhenReplayOutweighsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	rows := Fig11(0.2)
	byTable := map[string][]Fig11Row{}
	for _, r := range rows {
		byTable[r.Table] = append(byTable[r.Table], r)
	}
	if len(byTable) != 7 {
		t.Fatalf("tables checkpointed = %d, want 7", len(byTable))
	}
	for tbl, cps := range byTable {
		if len(cps) < 2 {
			t.Fatalf("%s has %d checkpoints over 3 phases of 10 manifests", tbl, len(cps))
		}
		for i, cp := range cps {
			// A checkpoint is stored as it decodes, so there is no decoded
			// size to hold its stored bytes below.
			if cp.Bytes <= 0 || cp.Folded <= 0 || cp.LastFolded <= 0 || cp.LastFolded > cp.FoldedBytes {
				t.Fatalf("%s checkpoint %d = %+v", tbl, i, cp)
			}
			if i+1 < len(cps) && cp.EndSeq != cps[i+1].StartSeq {
				t.Fatalf("%s checkpoint at %d superseded at %d, the next was made at %d", tbl, cp.StartSeq, cp.EndSeq, cps[i+1].StartSeq)
			}
			if i+1 == len(cps) && cp.EndSeq != 0 {
				t.Fatalf("%s newest checkpoint closed at %d", tbl, cp.EndSeq)
			}
			if i == 0 {
				continue
			}
			prev := cps[i-1].Bytes
			if cp.FoldedBytes < prev || cp.FoldedBytes-cp.LastFolded >= prev {
				t.Fatalf("%s checkpoint at %d folded %d manifest bytes (newest %d) after a checkpoint of %d bytes: not the first commit to reach it",
					tbl, cp.StartSeq, cp.FoldedBytes, cp.LastFolded, prev)
			}
		}
	}
}

func TestFig12ConcurrencySlowsSU(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure experiment; run without -short")
	}
	rows := Fig12(0.2)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPhase := map[string]Fig12Row{}
	for _, r := range rows {
		byPhase[r.Phase] = r
	}
	// Assertions are on modeled work/contention counters, which are
	// deterministic functions of what each query's snapshot covered —
	// durations (wall-clock or simulated makespans) vary with scheduling.
	for _, iso := range []string{"SU_1", "SU_3", "SU_5"} {
		if c := byPhase[iso].Commits; c != 0 {
			t.Fatalf("isolated phase %s saw %d write commits", iso, c)
		}
	}
	// SU_2 runs with interleaved DM: writes must actually land mid-phase,
	// and the growing snapshots mean strictly more scan work than the
	// isolated SU_1 over the identical query set (merge-on-read deletes
	// never shrink physical rows within the phase).
	if byPhase["SU_2"].Commits == 0 {
		t.Fatal("SU_2 saw no concurrent DM commits; interleaving broken")
	}
	if w1, w2 := byPhase["SU_1"].WorkRows, byPhase["SU_2"].WorkRows; w2 <= w1 {
		t.Fatalf("SU with concurrent DM scanned %d rows, not more than isolated SU_1's %d", w2, w1)
	}
	// SU_4 runs with interleaved compaction: the optimizer's commits force
	// fresh snapshots onto newly written files, so the phase pays remote
	// reads (cache misses) that the isolated, fully warm SU_5 does not.
	if byPhase["SU_4"].Commits == 0 {
		t.Fatal("SU_4 saw no Optimize commits; compaction did not run")
	}
	if b4, b5 := byPhase["SU_4"].RemoteBytes, byPhase["SU_5"].RemoteBytes; b4 <= b5 {
		t.Fatalf("SU with concurrent Optimize read %d remote bytes, not more than isolated SU_5's %d", b4, b5)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"a", "long_header"}, [][]string{{"1", "2"}, {"333", "4"}})
	if out == "" || len(out) < 20 {
		t.Fatalf("render = %q", out)
	}
}
