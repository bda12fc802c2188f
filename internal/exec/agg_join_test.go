package exec

// The oracle for the operators built on keyTable: HashAgg, MergeAgg and
// JoinTable/Probe against the scalar reference aggregator and nested-loop
// join of reference_test.go, over key and argument types × NULL keys and NULL
// arguments × selected and dense batches × batch splits × partial→merge ×
// build parallelism, compared as bytes; the keyTable itself against a Go map;
// and the allocation gates that keep both off the per-row heap.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"polaris/internal/colfile"
)

// diffSchema is the input of the differential tests: four key-ish columns of
// every type (two strings, for keys that differ only in where a column ends)
// and two numeric arguments. Every column is nullable.
var diffSchema = colfile.Schema{
	{Name: "i", Type: colfile.Int64},
	{Name: "f", Type: colfile.Float64},
	{Name: "s", Type: colfile.String},
	{Name: "s2", Type: colfile.String},
	{Name: "b", Type: colfile.Bool},
	{Name: "v", Type: colfile.Int64},
	{Name: "w", Type: colfile.Float64},
}

// diffAggs is every aggregate over every type it accepts.
var diffAggs = []refAgg{
	{AggCountStar, -1}, {AggCount, 2}, {AggSum, 5}, {AggSum, 6}, {AggAvg, 5}, {AggAvg, 6},
	{AggMin, 0}, {AggMax, 0}, {AggMin, 1}, {AggMax, 1}, {AggMin, 2}, {AggMax, 2}, {AggMin, 4}, {AggMax, 4},
}

// diffValue draws column c's value for one row: NULL nullPct times in a
// hundred, otherwise from a domain of about `domain` values per column, so
// keys collide. The arguments are small integers and multiples of 1/4 (and
// both zeros): their float sums are exact, so a partial→merge aggregate adds
// up to the same bits in any order. The integer key column also draws the two
// extremes, and the strings the pair a separator-based key would confuse.
func diffValue(rng *rand.Rand, c, domain, nullPct int) any {
	if rng.Intn(100) < nullPct {
		return nil
	}
	k := rng.Intn(domain)
	switch diffSchema[c].Type {
	case colfile.Int64:
		switch {
		case c == 0 && k == 0:
			return int64(math.MinInt64)
		case c == 0 && k == 1:
			return int64(math.MaxInt64)
		}
		return int64(k - domain/2)
	case colfile.Float64:
		if k == 0 {
			return math.Copysign(0, -1)
		}
		return float64(k-domain/2) / 4
	case colfile.String:
		fixed := []string{"", "a", "a\x00", "\x00b", "b", "ab"}
		if k < len(fixed) {
			return fixed[k]
		}
		return fmt.Sprintf("k%d", k)
	}
	return k%2 == 0
}

func diffRows(rng *rand.Rand, n, domain, nullPct int) [][]any {
	rows := make([][]any, n)
	for r := range rows {
		rows[r] = make([]any, len(diffSchema))
		for c := range diffSchema {
			rows[r][c] = diffValue(rng, c, domain, nullPct)
		}
	}
	return rows
}

// diffBatches cuts rows into `splits` batches at random points. With selected
// set every batch carries decoy rows the selection vector skips; an operator
// that reads a physical lane it was not given shows up as a wrong result.
func diffBatches(t testing.TB, rng *rand.Rand, schema colfile.Schema, rows [][]any, splits int, selected bool) []*colfile.Batch {
	cuts := []int{0, len(rows)}
	for i := 1; i < splits; i++ {
		cuts = append(cuts, rng.Intn(len(rows)+1))
	}
	sort.Ints(cuts)
	var out []*colfile.Batch
	for i := 0; i+1 < len(cuts); i++ {
		b := colfile.NewBatch(schema)
		var sel []int
		for _, row := range rows[cuts[i]:cuts[i+1]] {
			for selected && rng.Intn(3) == 0 {
				if err := b.AppendRow(diffRows(rng, 1, 4, 30)[0][:len(schema)]...); err != nil {
					t.Fatal(err)
				}
			}
			sel = append(sel, b.PhysRows())
			if err := b.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		if selected {
			if sel == nil {
				sel = []int{}
			}
			b.Sel = sel
		}
		out = append(out, b)
	}
	return out
}

// batchBytes renders a batch's logical rows, each value tagged with its
// vector's type and floats as bits, so -0 and a last-ulp difference are
// differences. It reads the typed slices directly: the sweeps render millions
// of values, and under the race detector fmt made them the slowest tests here.
func batchBytes(b *colfile.Batch) []byte {
	var out []byte
	for r := 0; r < b.NumRows(); r++ {
		i := b.RowIdx(r)
		for _, v := range b.Cols {
			switch {
			case v.IsNull(i):
				out = append(out, "null"...)
			case v.Type == colfile.Int64:
				out = strconv.AppendInt(append(out, 'i'), v.Ints[i], 10)
			case v.Type == colfile.Float64:
				out = strconv.AppendUint(append(out, 'f'), math.Float64bits(v.Floats[i]), 16)
			case v.Type == colfile.String:
				out = strconv.AppendQuote(append(out, 's'), v.Strs[i])
			default:
				out = strconv.AppendBool(append(out, 'b'), v.Bools[i])
			}
			out = append(out, '|')
		}
		out = append(out, '\n')
	}
	return out
}

func rowsBatch(t testing.TB, schema colfile.Schema, rows [][]any) *colfile.Batch {
	b := colfile.NewBatch(schema)
	for _, row := range rows {
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// aggCase is one point of the aggregation sweep.
type aggCase struct {
	seed      int64
	rows      int
	domain    int
	nullPct   int
	groupCols []int
	splits    int
	morsels   int // 0: one final HashAgg; otherwise that many partial HashAggs under a MergeAgg
	selected  bool
}

// checkAggAgainstReference runs one case through the operators and through
// refAggregate and compares the bytes.
func checkAggAgainstReference(t testing.TB, c aggCase) {
	rng := rand.New(rand.NewSource(c.seed))
	rows := diffRows(rng, c.rows, c.domain, c.nullPct)
	batches := diffBatches(t, rng, diffSchema, rows, c.splits, c.selected)

	var groupBy []*Prog
	for _, g := range c.groupCols {
		groupBy = append(groupBy, prog(t, diffSchema, ColRef{Idx: g, Name: diffSchema[g].Name}))
	}
	aggs := make([]AggSpec, len(diffAggs))
	for i, a := range diffAggs {
		aggs[i] = AggSpec{Kind: a.kind, Name: fmt.Sprintf("a%d", i)}
		if a.kind != AggCountStar {
			aggs[i].Arg = prog(t, diffSchema, ColRef{Idx: a.col})
		}
	}

	want := refAggregate(rows, c.groupCols, diffAggs)
	var got *colfile.Batch
	var err error
	if c.morsels == 0 {
		got, err = Collect(&HashAgg{In: NewBatchList(diffSchema, batches), GroupBy: groupBy, Aggs: aggs})
	} else {
		partial := func(in []*colfile.Batch) *HashAgg {
			return &HashAgg{In: NewBatchList(diffSchema, in), GroupBy: groupBy, Aggs: aggs, Partial: true}
		}
		var partials []*colfile.Batch
		per := (len(batches) + c.morsels - 1) / c.morsels
		for lo := 0; lo < len(batches); lo += per {
			p, perr := Collect(partial(batches[lo:min(lo+per, len(batches))]))
			if perr != nil {
				t.Fatal(perr)
			}
			partials = append(partials, p)
		}
		got, err = Collect(&MergeAgg{In: NewBatchList(partial(nil).Schema(), partials), Groups: len(groupBy), Aggs: aggs})
	}
	if err != nil {
		t.Fatal(err)
	}

	final := (&HashAgg{GroupBy: groupBy, Aggs: aggs}).Schema()
	wantBatch := rowsBatch(t, final, want)
	if c.morsels > 0 {
		// The merge emits groups by ascending encoded key; the reference found
		// them by value, so only their order is taken from the encoding.
		keys := make([][]byte, len(want))
		order := make([]int, len(want))
		for r := range want {
			keys[r] = appendGroupKey(nil, wantBatch.Cols[:len(groupBy)], r)
			order[r] = r
		}
		sort.Slice(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
		wantBatch = wantBatch.Take(order)
	}
	if g, w := batchBytes(got), batchBytes(wantBatch); !bytes.Equal(g, w) {
		t.Fatalf("%+v: aggregate differs from the reference\ngot:\n%s\nwant:\n%s", c, g, w)
	}
}

func TestAggregationMatchesReference(t *testing.T) {
	groupings := [][]int{nil, {0}, {1}, {2}, {4}, {2, 3}, {0, 4}, {1, 2, 0}}
	seed := int64(0)
	for _, groupCols := range groupings {
		for _, rows := range []int{0, 1, 700} {
			for _, nullPct := range []int{0, 25} {
				for _, selected := range []bool{false, true} {
					for _, shape := range [][2]int{{1, 0}, {5, 0}, {1, 1}, {6, 3}, {9, 9}} {
						seed++
						checkAggAgainstReference(t, aggCase{
							seed: seed, rows: rows, domain: 9, nullPct: nullPct, groupCols: groupCols,
							splits: shape[0], morsels: shape[1], selected: selected,
						})
					}
				}
			}
		}
	}
}

// joinCase is one point of the join sweep.
type joinCase struct {
	seed               int64
	probeRows, build   int
	domain, nullPct    int
	probeKeys, bldKeys []int
	typ                JoinType
	splits             int
	selected           bool
	parallelism        int
	// bloom also runs the join with its runtime filter: the probe through the
	// table's BloomFilter, and a grace build spilled under a one-byte budget,
	// whose own filter prunes probe rows before they are partitioned.
	bloom bool
}

// checkJoinAgainstReference runs one case through the operators and through
// refJoin and compares the bytes. With c.bloom it returns the probe rows each
// runtime filter pruned: the in-memory probe's and the spilled join's.
func checkJoinAgainstReference(t testing.TB, c joinCase) (pruned, spillPruned int64) {
	rng := rand.New(rand.NewSource(c.seed))
	probe := diffRows(rng, c.probeRows, c.domain, c.nullPct)
	build := diffRows(rng, c.build, c.domain, c.nullPct)
	buildBatches := diffBatches(t, rng, diffSchema, build, 3, c.selected)
	jt, err := BuildHashJoin(NewBatchList(diffSchema, buildBatches), c.bldKeys, c.typ, c.parallelism, nil)
	if err != nil {
		t.Fatal(err)
	}
	probeBatches := diffBatches(t, rng, diffSchema, probe, c.splits, c.selected)
	p := &Probe{In: NewBatchList(diffSchema, probeBatches), Table: jt, LeftKeys: c.probeKeys}
	want := rowsBatch(t, p.Schema(), refJoin(probe, build, c.probeKeys, c.bldKeys, c.typ, len(diffSchema)))
	wantBytes := batchBytes(want)
	check := func(what string, got *colfile.Batch, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batchBytes(got), wantBytes) {
			t.Fatalf("%+v: %s differs from the reference (%d rows, want %d)", c, what, got.NumRows(), want.NumRows())
		}
	}
	got, err := Collect(p)
	check("join", got, err)
	if !c.bloom {
		return 0, 0
	}

	var n atomic.Int64
	got, err = Collect(&Probe{In: NewBatchList(diffSchema, probeBatches), Table: jt, LeftKeys: c.probeKeys, Bloom: jt.BloomFilter(), Pruned: &n})
	check("bloom-filtered join", got, err)

	src, err := BuildGraceJoin(NewBatchList(diffSchema, buildBatches), c.bldKeys, c.typ, c.parallelism,
		SpillConfig{Budget: 1, Store: NewMemSpillStore()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Spilled == nil {
		t.Fatalf("%+v: grace build did not spill under a one-byte budget", c)
	}
	joined, err := src.Spilled.JoinBatches(context.Background(), probeBatches, c.probeKeys, diffSchema, c.parallelism)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Collect(NewBatchList(p.Schema(), joined))
	check("spilled bloom-filtered join", got, err)
	return n.Load(), src.Spilled.BloomPrunedRows()
}

func TestJoinMatchesReference(t *testing.T) {
	keySets := [][2][]int{
		{{0}, {0}}, {{1}, {1}}, {{2}, {3}}, {{4}, {4}}, {{2, 3}, {2, 3}}, {{0, 2}, {5, 3}},
	}
	seed := int64(1000)
	for _, ks := range keySets {
		for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin} {
			for _, selected := range []bool{false, true} {
				// A small build, and one past buildParallelMinRows so the
				// partitioned build runs; its domain is wide to keep the
				// nested loop's output small.
				for _, size := range [][3]int{{60, 40, 7}, {12, buildParallelMinRows + 100, 900}} {
					for _, par := range []int{1, 3, 4} {
						seed++
						checkJoinAgainstReference(t, joinCase{
							seed: seed, probeRows: size[0], build: size[1], domain: size[2], nullPct: 15,
							probeKeys: ks[0], bldKeys: ks[1], typ: typ, splits: 1 + int(seed%4), selected: selected, parallelism: par,
							bloom: typ != LeftOuterJoin,
						})
					}
				}
			}
		}
	}
	// A sparse build: 40 keys out of a domain of 900, so most probe rows carry
	// a key the build lacks and both filters must drop rows, not just agree.
	pruned, spillPruned := checkJoinAgainstReference(t, joinCase{
		seed: 2000, probeRows: 600, build: 40, domain: 900, nullPct: 15,
		probeKeys: []int{0}, bldKeys: []int{0}, typ: InnerJoin, splits: 3, parallelism: 4, bloom: true,
	})
	if pruned == 0 || spillPruned == 0 {
		t.Fatalf("sparse build: the probe's filter pruned %d rows, the spilled join's %d; want both > 0", pruned, spillPruned)
	}
}

// TestKeyTableMatchesMap holds keyTable to a Go map under first-seen
// numbering, with the real hash and with one constant hash for every key: ids,
// finds and stored bytes may not depend on hash values. The key set crosses
// several growth boundaries and holds the column-boundary pair. The word
// subtests do the same for Int64 words — the extremes, 0 and -1 among them —
// plus a NULL key that keeps its id across growths, is never found, and
// orders first.
func TestKeyTableMatchesMap(t *testing.T) {
	pairA := appendGroupKey(nil, []*colfile.Vec{{Type: colfile.String, Strs: []string{"a\x00"}}, {Type: colfile.String, Strs: []string{"b"}}}, 0)
	pairB := appendGroupKey(nil, []*colfile.Vec{{Type: colfile.String, Strs: []string{"a"}}, {Type: colfile.String, Strs: []string{"\x00b"}}}, 0)
	if bytes.Equal(pairA, pairB) {
		t.Fatal(`("a\x00","b") and ("a","\x00b") encode to the same key`)
	}
	hashes := map[string]func([]byte) uint64{
		"hashKey":  hashKey[[]byte],
		"constant": func([]byte) uint64 { return 42 },
		"zero":     func([]byte) uint64 { return 0 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var kt keyTable
			want := map[string]int{}
			var order []string
			insert := func(k []byte) {
				id, added := kt.insert(k, hash(k))
				wantID, seen := want[string(k)]
				if !seen {
					wantID = len(want)
					want[string(k)] = wantID
					order = append(order, string(k))
				}
				if int(id) != wantID || added == seen {
					t.Fatalf("insert(%q) = (%d, %v), want (%d, %v)", k, id, added, wantID, !seen)
				}
			}
			insert(pairA)
			insert(pairB)
			insert(nil)
			for i := 0; i < 3000; i++ {
				k := make([]byte, rng.Intn(12))
				for j := range k {
					k[j] = byte(rng.Intn(3)) // few symbols: many repeats, many shared prefixes
				}
				insert(k)
			}
			if kt.len() != len(want) || kt.len() < 600 {
				t.Fatalf("len = %d, want %d (and past several growths)", kt.len(), len(want))
			}
			for id, k := range order {
				if got := kt.find([]byte(k), hash([]byte(k))); int(got) != id {
					t.Fatalf("find(%q) = %d, want %d", k, got, id)
				}
				if !bytes.Equal(kt.key(int32(id)), []byte(k)) {
					t.Fatalf("key(%d) = %q, want %q", id, kt.key(int32(id)), k)
				}
			}
			for i := 0; i < 200; i++ {
				k := append([]byte{9}, byte(i)) // symbol 9 is in no inserted key
				if got := kt.find(k, hash(k)); got != -1 {
					t.Fatalf("find(absent %q) = %d", k, got)
				}
			}
		})
	}

	// The word path: one Int64 column's values as machine words, the
	// extremes among them, and a NULL group that takes an id but no slot.
	wordHashes := map[string]func(int64) uint64{
		"hashKeys": func(w int64) uint64 { return rowHash([]*colfile.Vec{{Type: colfile.Int64, Ints: []int64{w}}}, 0) },
		"constant": func(int64) uint64 { return 42 },
		"zero":     func(int64) uint64 { return 0 },
	}
	for name, hash := range wordHashes {
		t.Run("word/"+name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var kt keyTable
			want := map[int64]int{}
			next, nullID := 0, -1 // the id the next new key gets; the NULL key's
			insertNull := func() {
				first := nullID < 0
				if first {
					nullID = next
					next++
				}
				if id, added := kt.insertNull(); int(id) != nullID || added != first {
					t.Fatalf("insertNull() = (%d, %v), want (%d, %v)", id, added, nullID, first)
				}
			}
			insert := func(w int64) {
				wantID, seen := want[w]
				if !seen {
					wantID = next
					want[w] = next
					next++
				}
				if id, added := kt.insertWord(w, hash(w)); int(id) != wantID || added == seen {
					t.Fatalf("insertWord(%d) = (%d, %v), want (%d, %v)", w, id, added, wantID, !seen)
				}
			}
			insertNull() // first, so after each growth its id precedes every value's
			for _, w := range []int64{math.MinInt64, math.MaxInt64, 0, -1} {
				insert(w)
			}
			for i := 0; i < 3000; i++ {
				insert(int64(rng.Intn(1200) - 600))
				if i == 1500 {
					insertNull() // the same id, after several growths
				}
			}
			if kt.len() != next || kt.len() < 600 {
				t.Fatalf("len = %d, want %d (and past several growths)", kt.len(), next)
			}
			for w, id := range want {
				if got := kt.findWord(w, hash(w)); int(got) != id || kt.words[id] != w {
					t.Fatalf("findWord(%d) = %d, want %d", w, got, id)
				}
			}
			for _, w := range []int64{601, -601, math.MinInt64 + 1, math.MaxInt64 - 1} {
				if got := kt.findWord(w, hash(w)); got != -1 {
					t.Fatalf("findWord(absent %d) = %d", w, got)
				}
			}
			// Word order is AppendKey byte order: NULL first, then by value.
			enc := make([][]byte, kt.len())
			ids := make([]int32, kt.len())
			for id := range enc {
				v := &colfile.Vec{Type: colfile.Int64, Ints: []int64{kt.words[id]}}
				if id == nullID {
					v.Nulls = []bool{true}
				}
				enc[id], ids[id] = v.AppendKey(nil, 0), int32(id)
			}
			slices.SortFunc(ids, kt.compareWords)
			for i := 1; i < len(ids); i++ {
				if bytes.Compare(enc[ids[i-1]], enc[ids[i]]) >= 0 {
					t.Fatalf("compareWords puts %q before %q", enc[ids[i-1]], enc[ids[i]])
				}
			}
		})
	}
}

func TestKeyTableRefusesToWrapIDs(t *testing.T) {
	var kt keyTable
	if err := kt.checkRoom(maxTableKeys); err != nil {
		t.Fatalf("an empty table has room for %d keys: %v", maxTableKeys, err)
	}
	kt.insert([]byte("k"), 1)
	if err := kt.checkRoom(maxTableKeys); err == nil {
		t.Fatal("checkRoom accepted an insert that would wrap int32 ids")
	}
}

// distinctKeyBatch is n rows of n distinct int keys and two arguments.
func distinctKeyBatch(t testing.TB, n int) *colfile.Batch {
	b := colfile.NewBatch(colfile.Schema{
		{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}, {Name: "w", Type: colfile.Float64},
	})
	for i := 0; i < n; i++ {
		if err := b.AppendRow(int64(i*7919), int64(i), float64(i)/2); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestHashAggAllocationGate: a partial HashAgg over 4,096 rows of 4,096
// distinct keys with two aggregates allocates a few objects per doubling of
// its tables, not per group (the per-group aggState it replaces cost 13 or
// more each).
func TestHashAggAllocationGate(t *testing.T) {
	const groups = 4096
	in := distinctKeyBatch(t, groups)
	groupBy := progs(t, in.Schema, ColRef{Idx: 0, Name: "k"})
	aggs := []AggSpec{
		{Kind: AggSum, Arg: prog(t, in.Schema, ColRef{Idx: 1}), Name: "s"},
		{Kind: AggAvg, Arg: prog(t, in.Schema, ColRef{Idx: 2}), Name: "a"},
	}
	allocs := testing.AllocsPerRun(5, func() {
		out, err := (&HashAgg{In: NewBatchSource(in), GroupBy: groupBy, Aggs: aggs, Partial: true}).Next()
		if err != nil || out.NumRows() != groups {
			t.Fatalf("partial aggregate: %v rows, err %v", out.NumRows(), err)
		}
	})
	if allocs >= groups/8 {
		t.Fatalf("partial HashAgg over %d groups allocates %.0f objects, want fewer than %d", groups, allocs, groups/8)
	}
}

// TestBuildHashJoinAllocationGate: a build allocates per doubling of a slice
// — each of its p ranges grows a key list, a row list and p partition lists,
// each of its p partitions a key table — never per row: the count fits
// (p² + 8p) slices × doublings, and sixteen times the rows may not double it.
func TestBuildHashJoinAllocationGate(t *testing.T) {
	const parts = 4
	build := func(n int) float64 {
		in := distinctKeyBatch(t, n)
		return testing.AllocsPerRun(3, func() {
			jt, err := BuildHashJoin(NewBatchSource(in), []int{0}, InnerJoin, parts, nil)
			if err != nil || len(jt.lookupWord(in.Cols[0].Ints[n-1], rowHash(in.Cols[:1], n-1))) != 1 {
				t.Fatalf("build of %d rows: err %v", n, err)
			}
		})
	}
	small, large := build(buildParallelMinRows), build(16*buildParallelMinRows)
	doublings := bits.Len(buildParallelMinRows)
	if bound := float64((parts*parts+8*parts)*doublings + 64); small > bound {
		t.Fatalf("BuildHashJoin over %d rows in %d partitions allocates %.0f objects, want at most %.0f", buildParallelMinRows, parts, small, bound)
	}
	if large > 2*small {
		t.Fatalf("BuildHashJoin allocates %.0f objects over %d rows but %.0f over %d: growth is not logarithmic",
			large, 16*buildParallelMinRows, small, buildParallelMinRows)
	}
}

// TestProbeAllocationGate: probing 4,096 rows against a word table allocates
// the output batch, each output column's gather and the probe's scratch —
// a count fixed by the output column count, not by the rows.
func TestProbeAllocationGate(t *testing.T) {
	const rows = 4096
	in := distinctKeyBatch(t, rows)
	jt, err := BuildHashJoin(NewBatchSource(in), []int{0}, InnerJoin, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bloom := jt.BloomFilter()
	outCols := 2 * len(in.Cols)
	allocs := testing.AllocsPerRun(5, func() {
		out, err := (&Probe{In: NewBatchSource(in), Table: jt, LeftKeys: []int{0}, Bloom: bloom}).Next()
		if err != nil || out.NumRows() != rows {
			t.Fatalf("probe: %d rows, err %v", out.NumRows(), err)
		}
	})
	if bound := float64(4*outCols + 16); allocs > bound {
		t.Fatalf("probing %d rows allocates %.0f objects, want at most %.0f (%d output columns)", rows, allocs, bound, outCols)
	}
}

// TestMergeAggWordKeyOrder: a MergeAgg over one Int64 group key keys its
// table by word, and still emits groups in the order of their AppendKey
// bytes — NULL first, then by value, negatives before positives.
func TestMergeAggWordKeyOrder(t *testing.T) {
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}}
	keys := [][]any{
		{int64(5), nil, int64(-3), int64(math.MaxInt64)},
		{int64(0), int64(math.MinInt64), int64(-1), int64(5)},
		{nil, int64(-3), int64(1), int64(-600), int64(600)},
	}
	groupBy := progs(t, schema, ColRef{Idx: 0, Name: "k"})
	aggs := []AggSpec{{Kind: AggCountStar, Name: "n"}}
	var partials []*colfile.Batch
	for _, rows := range keys {
		in := colfile.NewBatch(schema)
		for _, k := range rows {
			if err := in.AppendRow(k); err != nil {
				t.Fatal(err)
			}
		}
		p, err := Collect(&HashAgg{In: NewBatchSource(in), GroupBy: groupBy, Aggs: aggs, Partial: true})
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	got, err := Collect(&MergeAgg{In: NewBatchList(partials[0].Schema, partials), Groups: 1, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	want := "null|i2|\ni-9223372036854775808|i1|\ni-600|i1|\ni-3|i2|\ni-1|i1|\ni0|i1|\ni1|i1|\ni5|i2|\ni600|i1|\ni9223372036854775807|i1|\n"
	if g := string(batchBytes(got)); g != want {
		t.Fatalf("merged groups:\n%s\nwant:\n%s", g, want)
	}
	for r := 1; r < got.NumRows(); r++ {
		if bytes.Compare(got.Cols[0].AppendKey(nil, r-1), got.Cols[0].AppendKey(nil, r)) >= 0 {
			t.Fatalf("groups %d and %d are not in AppendKey byte order", r-1, r)
		}
	}
}

// rowHash is the key hash hashKeys gives row r of the key columns vecs.
func rowHash(vecs []*colfile.Vec, r int) uint64 {
	hs := make([]uint64, 1)
	hashKeys(hs, vecs, []int{r}, 0)
	return hs[0]
}
