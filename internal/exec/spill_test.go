package exec

// Grace hash-join spilling: the spilled partition-wise join must be
// byte-identical to the in-memory JoinTable+Probe path for every join type,
// key shape (duplicates, NULLs, skew) and morsel decomposition, and a failed
// spill write must surface a clean error.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"polaris/internal/colfile"
	"polaris/internal/objectstore"
)

// buildSideBatch returns a build side over (k INT, tag VARCHAR) with
// duplicate keys, NULL keys, and rows enough to overflow small budgets.
func buildSideBatch(rows int) *colfile.Batch {
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "tag", Type: colfile.String},
	}
	b := colfile.NewBatch(schema)
	for i := 0; i < rows; i++ {
		if i%13 == 7 {
			b.Cols[0].AppendNull() // NULL build keys never match
		} else {
			b.Cols[0].AppendInt(int64(i % 50)) // heavy duplication
		}
		b.Cols[1].AppendStr(fmt.Sprintf("tag-%03d", i))
	}
	return b
}

// probeSideBatches returns the probe side over (k INT, v INT) split into
// morsel-shaped batches, including a nil morsel and NULL probe keys.
func probeSideBatches(rows, morsels int) []*colfile.Batch {
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "v", Type: colfile.Int64},
	}
	out := make([]*colfile.Batch, 0, morsels+1)
	per := (rows + morsels - 1) / morsels
	r := 0
	for m := 0; m < morsels; m++ {
		b := colfile.NewBatch(schema)
		for i := 0; i < per && r < rows; i++ {
			if r%17 == 3 {
				b.Cols[0].AppendNull()
			} else {
				b.Cols[0].AppendInt(int64(r % 61)) // some keys miss the build
			}
			b.Cols[1].AppendInt(int64(r))
			r++
		}
		out = append(out, b)
		if m == 1 {
			out = append(out, nil) // empty morsel mid-stream
		}
	}
	return out
}

func renderSpillBatch(b *colfile.Batch) string {
	if b == nil {
		return "<nil>"
	}
	var sb strings.Builder
	for r := 0; r < b.NumRows(); r++ {
		fmt.Fprintf(&sb, "%v\n", b.Row(r))
	}
	return sb.String()
}

// inMemoryReference probes every batch against an in-memory JoinTable,
// returning per-batch renders — the bytes a spilled join must reproduce.
func inMemoryReference(t *testing.T, build *colfile.Batch, probe []*colfile.Batch, typ JoinType, leftKeys, rightKeys []int) []string {
	t.Helper()
	jt, err := BuildHashJoin(NewBatchSource(build), rightKeys, typ, 4)
	if err != nil {
		t.Fatalf("in-memory build: %v", err)
	}
	out := make([]string, len(probe))
	for i, b := range probe {
		if b == nil {
			out[i] = "<nil>"
			continue
		}
		got, err := Collect(&Probe{In: NewBatchSource(b), Table: jt, LeftKeys: leftKeys})
		if err != nil {
			t.Fatalf("in-memory probe: %v", err)
		}
		out[i] = renderSpillBatch(got)
	}
	return out
}

func spilledResult(t *testing.T, build *colfile.Batch, probe []*colfile.Batch, typ JoinType, leftKeys, rightKeys []int, cfg SpillConfig) (*SpilledJoin, []string) {
	t.Helper()
	src, err := BuildGraceJoin(NewBatchSource(build), rightKeys, typ, 4, cfg)
	if err != nil {
		t.Fatalf("grace build: %v", err)
	}
	if src.Spilled == nil {
		t.Fatalf("build of %d bytes did not spill under budget %d", build.MemSize(), cfg.Budget)
	}
	outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, leftKeys, probe[0].Schema, nil, 4)
	if err != nil {
		t.Fatalf("spilled join: %v", err)
	}
	rendered := make([]string, len(outs))
	for i, b := range outs {
		if b == nil {
			rendered[i] = emptyRender(probe[i])
		} else {
			rendered[i] = renderSpillBatch(b)
		}
	}
	return src.Spilled, rendered
}

// emptyRender maps a nil spilled output back to what the in-memory reference
// renders for that morsel: "<nil>" for a nil input morsel, "" for a morsel
// that produced no rows.
func emptyRender(probe *colfile.Batch) string {
	if probe == nil {
		return "<nil>"
	}
	return ""
}

func TestGraceJoinSpilledMatchesInMemory(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 5)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin} {
		want := inMemoryReference(t, build, probe, typ, []int{0}, []int{0})
		store := NewMemSpillStore()
		sj, got := spilledResult(t, build, probe, typ, []int{0}, []int{0},
			SpillConfig{Budget: 2048, Store: store})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("type %d morsel %d: spilled join differs from in-memory:\ngot:\n%s\nwant:\n%s", typ, i, got[i], want[i])
			}
		}
		if sj.SpillBytes() == 0 {
			t.Fatalf("type %d: spill accounting empty", typ)
		}
		if store.Count() == 0 {
			t.Fatalf("type %d: no spill files written", typ)
		}
	}
}

// TestGraceJoinSkewRecursion forces the recursive-repartition path: one hot
// key holds most of the build side, so its depth-0 partition exceeds the
// budget and is repartitioned; the hot key itself can never split, bottoming
// out in the documented in-memory fallback — with output still byte-identical.
func TestGraceJoinSkewRecursion(t *testing.T) {
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "tag", Type: colfile.String},
	}
	build := colfile.NewBatch(schema)
	for i := 0; i < 800; i++ {
		k := int64(7) // hot key
		if i%10 == 0 {
			k = int64(i)
		}
		build.Cols[0].AppendInt(k)
		build.Cols[1].AppendStr(fmt.Sprintf("t%04d", i))
	}
	probe := probeSideBatches(120, 3)
	want := inMemoryReference(t, build, probe, InnerJoin, []int{0}, []int{0})
	_, got := spilledResult(t, build, probe, InnerJoin, []int{0}, []int{0},
		SpillConfig{Budget: 1024, Store: NewMemSpillStore()})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("morsel %d under skew differs:\ngot:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}

// TestGraceJoinSplitsAtEveryDepth: under skew (one hot key holds a third of
// the build) a depth-0 partition and then its depth-1 sub-partitions still
// exceed the budget, and each repartition must spread its keys over several
// sub-partitions — every depth partitions by its own remix of the row hash, so
// the bits that put keys together at one depth do not keep them together at
// the next. Output stays byte-identical to the in-memory join.
func TestGraceJoinSplitsAtEveryDepth(t *testing.T) {
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "tag", Type: colfile.String},
	}
	build := colfile.NewBatch(schema)
	for i := 0; i < 6000; i++ {
		k := int64(i)
		if i%3 == 0 {
			k = 7 // the hot key
		}
		build.Cols[0].AppendInt(k)
		build.Cols[1].AppendStr(fmt.Sprintf("t%04d", i))
	}
	probe := []*colfile.Batch{colfile.NewBatch(colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}})}
	for i := 0; i < 6000; i += 5 {
		probe[0].Cols[0].AppendInt(int64(i))
		probe[0].Cols[1].AppendInt(int64(i))
	}
	want := inMemoryReference(t, build, probe, InnerJoin, []int{0}, []int{0})
	store := NewMemSpillStore()
	_, got := spilledResult(t, build, probe, InnerJoin, []int{0}, []int{0},
		SpillConfig{Budget: 1024, Store: store})
	if got[0] != want[0] {
		t.Fatalf("spilled join under skew differs:\ngot:\n%s\nwant:\n%s", got[0], want[0])
	}
	// children[dir] is the set of sub-partitions a build directory split
	// into; a leaf file's directory is "b/d0/pAAA[/pBBB[/pCCC]]".
	children := map[string]map[string]bool{}
	deepest := 0
	for _, name := range store.List("b/d0/") {
		dirs := strings.Split(name, "/")
		dirs = dirs[2 : len(dirs)-1] // drop "b", "d0" and the file
		deepest = max(deepest, len(dirs)-1)
		for d := 1; d < len(dirs); d++ {
			parent := strings.Join(dirs[:d], "/")
			if children[parent] == nil {
				children[parent] = map[string]bool{}
			}
			children[parent][dirs[d]] = true
		}
	}
	if deepest != 2 {
		t.Fatalf("build side split to depth %d, want 2", deepest)
	}
	for parent, subs := range children {
		if len(subs) < 2 {
			t.Errorf("partition %s repartitioned into %d sub-partition(s), want several", parent, len(subs))
		}
	}
}

// TestGraceJoinMultiColumnStringKeys exercises multi-column keys with strings
// (the self-delimiting AppendKey encoding) through the spill path.
func TestGraceJoinMultiColumnStringKeys(t *testing.T) {
	schema := colfile.Schema{
		{Name: "a", Type: colfile.String},
		{Name: "b", Type: colfile.Int64},
	}
	build := colfile.NewBatch(schema)
	for i := 0; i < 400; i++ {
		build.Cols[0].AppendStr(fmt.Sprintf("s%c", 'a'+i%4))
		build.Cols[1].AppendInt(int64(i % 9))
	}
	probe := []*colfile.Batch{colfile.NewBatch(schema), colfile.NewBatch(schema)}
	for i := 0; i < 120; i++ {
		p := probe[i%2]
		p.Cols[0].AppendStr(fmt.Sprintf("s%c", 'a'+i%5))
		p.Cols[1].AppendInt(int64(i % 11))
	}
	want := inMemoryReference(t, build, probe, InnerJoin, []int{0, 1}, []int{0, 1})
	_, got := spilledResult(t, build, probe, InnerJoin, []int{0, 1}, []int{0, 1},
		SpillConfig{Budget: 1024, Store: NewMemSpillStore()})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("morsel %d with composite keys differs:\ngot:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}

// TestSpilledJoinReuse is the regression test for the fixed-prefix bug: a
// second JoinBatches call on the same SpilledJoin used to list the first
// call's probe-side leaf files (both wrote under l/d0) and silently emit
// duplicated rows. Probe spills are now namespaced per call, so every call
// must reproduce the in-memory reference exactly.
func TestSpilledJoinReuse(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 5)
	want := inMemoryReference(t, build, probe, InnerJoin, []int{0}, []int{0})
	store := NewMemSpillStore()
	src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 4,
		SpillConfig{Budget: 2048, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if src.Spilled == nil {
		t.Fatal("expected a spilled build")
	}
	for call := 0; call < 3; call++ {
		outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 4)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		for i, b := range outs {
			got := emptyRender(probe[i])
			if b != nil {
				got = renderSpillBatch(b)
			}
			if got != want[i] {
				t.Fatalf("call %d morsel %d differs from in-memory (stale leaf files reused?):\ngot:\n%s\nwant:\n%s",
					call, i, got, want[i])
			}
		}
	}
}

// TestSpilledJoinConcurrentCalls drives two JoinBatches calls against the
// same spilled build from concurrent goroutines (run under -race in CI):
// per-call probe namespaces must keep the calls from reading each other's
// leaf files, and both must match the in-memory reference.
func TestSpilledJoinConcurrentCalls(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 5)
	want := inMemoryReference(t, build, probe, InnerJoin, []int{0}, []int{0})
	src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 4,
		SpillConfig{Budget: 2048, Store: NewMemSpillStore()})
	if err != nil {
		t.Fatal(err)
	}
	if src.Spilled == nil {
		t.Fatal("expected a spilled build")
	}
	const callers = 4
	errs := make([]error, callers)
	got := make([][]string, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 2)
			if err != nil {
				errs[c] = err
				return
			}
			got[c] = make([]string, len(outs))
			for i, b := range outs {
				if b == nil {
					got[c][i] = emptyRender(probe[i])
				} else {
					got[c][i] = renderSpillBatch(b)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i := range want {
			if got[c][i] != want[i] {
				t.Fatalf("caller %d morsel %d differs from in-memory:\ngot:\n%s\nwant:\n%s", c, i, got[c][i], want[i])
			}
		}
	}
}

// TestSpilledJoinDopInvariant pins the partition-wise fan-out's determinism
// contract directly at the exec layer: for the same build and probe, every
// (dop, nested-cap) combination must produce byte-identical outputs and join
// the same number of partition pairs — fanning the partitions out moves work
// between workers, never between partitions.
func TestSpilledJoinDopInvariant(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 5)
	var wantRender []string
	var wantParts int64
	for _, dop := range []int{1, 2, 4, 16} { // 16 > fanout: dop must clamp
		src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, LeftOuterJoin, 4,
			SpillConfig{Budget: 2048, Store: NewMemSpillStore()})
		if err != nil {
			t.Fatal(err)
		}
		if src.Spilled == nil {
			t.Fatal("expected a spilled build")
		}
		outs, counts, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, dop)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		render := make([]string, len(outs))
		for i, b := range outs {
			if b == nil {
				render[i] = emptyRender(probe[i])
			} else {
				render[i] = renderSpillBatch(b)
			}
		}
		parts := counts.Partitions
		if parts == 0 {
			t.Fatalf("dop=%d: no partitions joined", dop)
		}
		if wantRender == nil {
			wantRender, wantParts = render, parts
			continue
		}
		for i := range wantRender {
			if render[i] != wantRender[i] {
				t.Fatalf("dop=%d morsel %d differs from dop=1:\ngot:\n%s\nwant:\n%s", dop, i, render[i], wantRender[i])
			}
		}
		if parts != wantParts {
			t.Fatalf("dop=%d: PartitionsJoined = %d, want %d", dop, parts, wantParts)
		}
	}
}

// TestGraceJoinUnderBudgetStaysInMemory pins that a build within budget
// returns an ordinary JoinTable and writes nothing to the store.
func TestGraceJoinUnderBudgetStaysInMemory(t *testing.T) {
	build := buildSideBatch(50)
	store := NewMemSpillStore()
	src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 2,
		SpillConfig{Budget: 1 << 20, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if src.Table == nil || src.Spilled != nil {
		t.Fatalf("under-budget build spilled")
	}
	if store.Count() != 0 {
		t.Fatalf("under-budget build wrote %d spill files", store.Count())
	}
}

// TestGraceJoinSpillWriteFailure injects a failing spill write at several
// points of the pipeline (build partitioning, probe partitioning, partition
// repartitioning) and requires a clean error — no panic, no partial result —
// with the spill accounting reflecting only the writes that actually became
// durable: SpillBytes must equal the bytes sitting in the store after the
// failure, never the bytes attempted.
func TestGraceJoinSpillWriteFailure(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 4)
	for _, failAt := range []int{1, 2, 5, 9, 14} {
		store := NewMemSpillStore()
		store.FailPut = failAt
		src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 2,
			SpillConfig{Budget: 2048, Store: store})
		if err == nil {
			// The build survived (failure lands on the probe side).
			if src.Spilled == nil {
				t.Fatalf("failAt=%d: expected a spilled build", failAt)
			}
			_, _, err = src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 4)
		}
		if err == nil {
			t.Fatalf("failAt=%d: injected put failure surfaced no error", failAt)
		}
		if !strings.Contains(err.Error(), "spill write") {
			t.Fatalf("failAt=%d: error does not name the spill write: %v", failAt, err)
		}
		if src != nil && src.Spilled != nil {
			if got, durable := src.Spilled.SpillBytes(), store.TotalBytes(); got != durable {
				t.Fatalf("failAt=%d: SpillBytes = %d, but only %d bytes are durable in the store", failAt, got, durable)
			}
		}
	}
}

// TestSpilledJoinRetryAfterWriteFailure pins the retry path of the shared
// build namespace: a JoinBatches call that dies on a failed spill write
// (possibly mid build-side repartition, leaving sub-partition files behind)
// must be retryable on the same SpilledJoin — the retry rewrites identical
// bytes to identical names, produces the in-memory reference output, and
// SpillBytes still equals the bytes resident in the store (rewrites are
// accounted once, not per attempt).
func TestSpilledJoinRetryAfterWriteFailure(t *testing.T) {
	// A skewed build forces recursive repartitioning inside JoinBatches.
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "tag", Type: colfile.String},
	}
	mkBuild := func() *colfile.Batch {
		b := colfile.NewBatch(schema)
		for i := 0; i < 800; i++ {
			k := int64(7)
			if i%10 == 0 {
				k = int64(i)
			}
			b.Cols[0].AppendInt(k)
			b.Cols[1].AppendStr(fmt.Sprintf("t%04d", i))
		}
		return b
	}
	probe := probeSideBatches(120, 3)
	want := inMemoryReference(t, mkBuild(), probe, InnerJoin, []int{0}, []int{0})
	cfg := func(store *MemSpillStore) SpillConfig { return SpillConfig{Budget: 1024, Store: store} }

	// Learn the put schedule from a clean run so the sweep can aim failures
	// after the build spill, inside JoinBatches (probe partitioning and the
	// recursive build repartition).
	clean := NewMemSpillStore()
	srcClean, err := BuildGraceJoin(NewBatchSource(mkBuild()), []int{0}, InnerJoin, 1, cfg(clean))
	if err != nil {
		t.Fatal(err)
	}
	buildPuts := clean.puts
	if _, _, err := srcClean.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 1); err != nil {
		t.Fatal(err)
	}
	joinPuts := clean.puts - buildPuts
	if joinPuts < 4 {
		t.Fatalf("only %d puts inside JoinBatches; cannot aim the sweep", joinPuts)
	}

	for _, frac := range []int{4, 2, 3} { // early, middle, late within JoinBatches
		store := NewMemSpillStore()
		src, err := BuildGraceJoin(NewBatchSource(mkBuild()), []int{0}, InnerJoin, 1, cfg(store))
		if err != nil {
			t.Fatal(err)
		}
		store.FailPut = buildPuts + joinPuts*(frac-1)/frac + 1
		if _, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 1); err == nil {
			t.Fatalf("frac=%d: injected put failure surfaced no error", frac)
		}
		outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 1)
		if err != nil {
			t.Fatalf("frac=%d: retry after failure: %v", frac, err)
		}
		for i, b := range outs {
			got := emptyRender(probe[i])
			if b != nil {
				got = renderSpillBatch(b)
			}
			if got != want[i] {
				t.Fatalf("frac=%d morsel %d: retry differs from in-memory:\ngot:\n%s\nwant:\n%s", frac, i, got, want[i])
			}
		}
		if got, durable := src.Spilled.SpillBytes(), store.TotalBytes(); got != durable {
			t.Fatalf("frac=%d: after retry SpillBytes = %d, store holds %d bytes (rewrites double-counted?)", frac, got, durable)
		}
	}
}

// flippingStore hands back the flipAt-th Get (1-based) with one bit of one
// byte inverted, as a store that damaged a spill chunk at rest would.
type flippingStore struct {
	SpillStore
	mu     sync.Mutex
	gets   int
	flipAt int
}

func (f *flippingStore) Get(name string) ([]byte, error) {
	data, err := f.SpillStore.Get(name)
	f.mu.Lock()
	f.gets++
	hit := f.gets == f.flipAt
	f.mu.Unlock()
	if err != nil || !hit {
		return data, err
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x10
	return bad, nil
}

// TestSpilledJoinRejectsCorruptChunk: a spill chunk that comes back from the
// store with a flipped bit fails the join with the frame's checksum error —
// wherever in the partition-wise join the read lands — instead of joining
// damaged rows. The failed call holds nothing: the same build re-probed over
// a clean store gives the in-memory result, and Cleanup empties the namespace.
func TestSpilledJoinRejectsCorruptChunk(t *testing.T) {
	build := buildSideBatch(600)
	probe := probeSideBatches(400, 4)
	want := inMemoryReference(t, build, probe, LeftOuterJoin, []int{0}, []int{0})
	for _, flipAt := range []int{1, 2, 7, 19} {
		store := objectstore.New()
		dir := objectstore.NewSpillDir(store, fmt.Sprintf("q%d", flipAt))
		flip := &flippingStore{SpillStore: dir, flipAt: flipAt}
		src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, LeftOuterJoin, 2,
			SpillConfig{Budget: 2048, Store: flip})
		if err != nil {
			t.Fatalf("flipAt=%d: build: %v", flipAt, err)
		}
		if src.Spilled == nil {
			t.Fatalf("flipAt=%d: expected a spilled build", flipAt)
		}
		outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 4)
		if !errors.Is(err, colfile.ErrChecksum) {
			t.Fatalf("flipAt=%d (%d gets): err = %v, want colfile.ErrChecksum", flipAt, flip.gets, err)
		}
		if outs != nil {
			t.Fatalf("flipAt=%d: a failed join returned %d outputs", flipAt, len(outs))
		}
		outs, _, err = src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, nil, 4)
		if err != nil {
			t.Fatalf("flipAt=%d: re-probe over the clean store: %v", flipAt, err)
		}
		for i, b := range outs {
			got := emptyRender(probe[i])
			if b != nil {
				got = renderSpillBatch(b)
			}
			if got != want[i] {
				t.Fatalf("flipAt=%d: re-probe morsel %d differs from the in-memory join", flipAt, i)
			}
		}
		if err := dir.Cleanup(); err != nil {
			t.Fatal(err)
		}
		if left := store.List(objectstore.SpillPrefix); len(left) != 0 {
			t.Fatalf("flipAt=%d: %d spill blobs left after Cleanup: %v", flipAt, len(left), left[:min(3, len(left))])
		}
	}
}

// TestProbeColsGatherOnlyKept: a probe with Cols emits exactly the chosen
// columns of its full output, in Cols order — in memory, and through a
// spilled join's barrier, which must emit what the in-memory probe emits.
func TestProbeColsGatherOnlyKept(t *testing.T) {
	build := buildSideBatch(300)
	probe := probeSideBatches(400, 4)
	for _, c := range []struct {
		typ  JoinType
		cols []int
	}{
		{InnerJoin, []int{3, 1}}, // build tag, probe v
		{InnerJoin, []int{0}},
		{LeftOuterJoin, []int{1, 2}},
		{SemiJoin, []int{1}},
	} {
		jt, err := BuildHashJoin(NewBatchSource(build), []int{0}, c.typ, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(probe))
		for i, b := range probe {
			if b == nil {
				want[i] = "<nil>"
				continue
			}
			full, err := Collect(&Probe{In: NewBatchSource(b), Table: jt, LeftKeys: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			picked := &colfile.Batch{}
			for _, col := range c.cols {
				picked.Schema = append(picked.Schema, full.Schema[col])
				picked.Cols = append(picked.Cols, full.Cols[col])
			}
			want[i] = renderSpillBatch(picked)
			p := &Probe{In: NewBatchSource(b), Table: jt, LeftKeys: []int{0}, Cols: c.cols}
			got, err := Collect(p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Schema.Equal(picked.Schema) || renderSpillBatch(got) != want[i] {
				t.Fatalf("%v cols %v morsel %d: in-memory probe emitted %v\n%s\nwant %v\n%s",
					c.typ, c.cols, i, got.Schema, renderSpillBatch(got), picked.Schema, want[i])
			}
		}

		src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, c.typ, 4, SpillConfig{Budget: 256, Store: NewMemSpillStore()})
		if err != nil || src.Spilled == nil {
			t.Fatalf("grace build did not spill: %v", err)
		}
		outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probe[0].Schema, c.cols, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range outs {
			got := emptyRender(probe[i])
			if b != nil {
				if len(b.Cols) != len(c.cols) {
					t.Fatalf("%v cols %v: the barrier emitted %d columns", c.typ, c.cols, len(b.Cols))
				}
				got = renderSpillBatch(b)
			}
			if got != want[i] {
				t.Fatalf("%v cols %v morsel %d: spilled join emitted\n%s\nwant\n%s", c.typ, c.cols, i, got, want[i])
			}
		}
	}
}

// TestJoinBatchesCancelledBeforePartitioning: a call whose context is
// already cancelled returns context.Canceled without writing a probe-side
// spill file — the partitioning observes ctx per probe batch, not only the
// fan-out after it.
func TestJoinBatchesCancelledBeforePartitioning(t *testing.T) {
	store := NewMemSpillStore()
	src, err := BuildGraceJoin(NewBatchSource(buildSideBatch(600)), []int{0}, InnerJoin, 4,
		SpillConfig{Budget: 256, Store: store})
	if err != nil || src.Spilled == nil {
		t.Fatalf("grace build: spilled=%v err=%v", src != nil && src.Spilled != nil, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probe := probeSideBatches(400, 5)
	if _, _, err := src.Spilled.JoinBatches(ctx, probe, []int{0}, probe[0].Schema, nil, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
	}
	if names := store.List("l/"); len(names) != 0 {
		t.Fatalf("cancelled call wrote %d probe-side spill files: %v", len(names), names[:min(3, len(names))])
	}
}
