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
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	compareAgg(t, c, rows, batches, c.groupCols, diffAggs)
}

// compareAgg aggregates batches — rows, cut and coded in some way — by
// groupCols with aggregates refs, a final HashAgg when c.morsels is 0 and
// partials under a MergeAgg otherwise, and compares the bytes with
// refAggregate's over rows.
func compareAgg(t testing.TB, c aggCase, rows [][]any, batches []*colfile.Batch, groupCols []int, refs []refAgg) {
	var groupBy []*Prog
	for _, g := range groupCols {
		groupBy = append(groupBy, prog(t, diffSchema, ColRef{Idx: g, Name: diffSchema[g].Name}))
	}
	aggs := make([]AggSpec, len(refs))
	for i, a := range refs {
		aggs[i] = AggSpec{Kind: a.kind, Name: fmt.Sprintf("a%d", i)}
		if a.kind != AggCountStar {
			aggs[i].Arg = prog(t, diffSchema, ColRef{Idx: a.col})
		}
	}

	want := refAggregate(rows, groupCols, refs)
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

	// The operators promise no group order (the SQL layer sorts), so both
	// sides are sorted by the group columns, which are distinct per group.
	wantBatch := rowsBatch(t, (&HashAgg{GroupBy: groupBy, Aggs: aggs}).Schema(), want)
	if g, w := batchBytes(sortByGroups(got, len(groupBy))), batchBytes(sortByGroups(wantBatch, len(groupBy))); !bytes.Equal(g, w) {
		t.Fatalf("%+v, groups %v: aggregate differs from the reference\ngot:\n%s\nwant:\n%s", c, groupCols, g, w)
	}
}

// checkCodedAggAgainstReference runs one case's rows, with NaNs of two bit
// patterns in the float column, through the aggregation with its String
// columns dictionary-coded by a real BuildHashJoin and Probe: all coded under
// one build's dictionaries, each half of the rows under the dictionaries of
// its own build of the same rows (so two dictionaries share every string,
// under other codes: the second build holds the rows in reverse),
// and half coded, half as scanned. The keys are the case's, the fixed-width
// composite (f, i, b) and (s, s2, f); the aggregates are every one but MIN
// and MAX of f, whose NaN order the reference does not model.
func checkCodedAggAgainstReference(t testing.TB, c aggCase) {
	rng := rand.New(rand.NewSource(c.seed))
	rows := diffRows(rng, c.rows, c.domain, c.nullPct)
	for i, row := range rows {
		if f, ok := row[1].(float64); ok && f > 0 && i%5 == 0 {
			row[1] = math.Float64frombits(0x7FF8000000000000 | uint64(i%2+1)) // two NaNs
		}
	}
	var refs []refAgg
	for _, a := range diffAggs {
		if a.col != 1 || a.kind != AggMin && a.kind != AggMax {
			refs = append(refs, a)
		}
	}
	// The build side: every row and its row number, id; the probe side
	// asks for rows by id, so the join's output is the rows in order, with
	// s and s2 gathered coded.
	bschema := append(slices.Clip(diffSchema), colfile.Field{Name: "id", Type: colfile.Int64})
	build := func(reverse bool) *JoinTable {
		brows := make([][]any, len(rows))
		for i, row := range rows {
			brows[i] = append(slices.Clip(row), int64(i))
		}
		if reverse {
			slices.Reverse(brows) // the other build numbers its strings in another order
		}
		jt, err := BuildHashJoin(NewBatchList(bschema, diffBatches(t, rng, bschema, brows, 3, false)), []int{len(diffSchema)}, InnerJoin, 1+c.morsels%3)
		if err != nil {
			t.Fatal(err)
		}
		return jt
	}
	pschema := colfile.Schema{{Name: "pid", Type: colfile.Int64}}
	cols, coded := make([]int, len(diffSchema)), []int{2, 3}
	for i := range cols {
		cols[i] = 1 + i
	}
	probe := func(jt *JoinTable, lo, hi int) []*colfile.Batch {
		ids := make([][]any, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, []any{int64(i)})
		}
		var out []*colfile.Batch
		for _, b := range diffBatches(t, rng, pschema, ids, c.splits, c.selected) {
			p := &Probe{In: NewBatchSource(b), Table: jt, LeftKeys: []int{0}, Cols: cols, Coded: coded}
			for {
				ob, err := p.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ob == nil {
					break
				}
				if ob.Cols[2].Ints == nil && ob.Cols[2].Len() > 0 {
					t.Fatalf("%+v: the probe gathered s plain", c)
				}
				out = append(out, ob)
			}
		}
		return out
	}
	one, other := build(false), build(true)
	half := len(rows) / 2
	shapes := map[string][]*colfile.Batch{
		"one build":  probe(one, 0, len(rows)),
		"two builds": append(probe(one, 0, half), probe(other, half, len(rows))...),
		"coded and scanned": append(probe(other, 0, half),
			diffBatches(t, rng, diffSchema, rows[half:], c.splits, c.selected)...),
	}
	for _, name := range []string{"one build", "two builds", "coded and scanned"} {
		for _, groupCols := range [][]int{c.groupCols, {1, 0, 4}, {2, 3, 1}} {
			compareAgg(t, c, rows, shapes[name], groupCols, refs)
		}
	}
}

// TestGroupKeysAsWords states the group-key answers the word path must give:
// "x" coded under two dictionaries is one group; (1, -0.0) and (1, +0.0) are
// one group, and so are NULL and NULL; two NaN bit patterns are two groups.
func TestGroupKeysAsWords(t *testing.T) {
	count := func(schema colfile.Schema, keys []int, batches ...*colfile.Batch) map[string]int64 {
		t.Helper()
		var groupBy []Expr
		for _, k := range keys {
			groupBy = append(groupBy, ColRef{Idx: k, Name: schema[k].Name})
		}
		out, err := Collect(&HashAgg{In: NewBatchList(schema, batches), GroupBy: progs(t, schema, groupBy...),
			Aggs: []AggSpec{{Kind: AggCountStar, Name: "n"}}})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for r := 0; r < out.NumRows(); r++ {
			var key []string
			for c := range keys {
				v := out.Cols[c].Value(r)
				if f, ok := v.(float64); ok {
					v = fmt.Sprintf("%x", math.Float64bits(f))
				}
				key = append(key, fmt.Sprint(v))
			}
			got[strings.Join(key, ",")] = out.Cols[len(keys)].Ints[r]
		}
		return got
	}
	strs := colfile.Schema{{Name: "s", Type: colfile.String}}
	x := func(vals ...string) *colfile.Batch {
		v := colfile.NewVec(colfile.String)
		for _, s := range vals {
			v.AppendStr(s)
		}
		return &colfile.Batch{Schema: strs, Cols: []*colfile.Vec{v.DictCoded()}}
	}
	a, b := x("x", "y"), x("y", "x", "x")
	if colfile.SameDict(a.Cols[0].Strs, b.Cols[0].Strs) {
		t.Fatal("the two batches share a dictionary")
	}
	if got, want := count(strs, []int{0}, a, b), map[string]int64{"x": 3, "y": 2}; !maps.Equal(got, want) {
		t.Errorf(`"x" and "y" under two dictionaries: groups %v, want %v`, got, want)
	}
	if got, want := count(strs, []int{0}, a, rowsBatch(t, strs, [][]any{{"x"}, {nil}, {"z"}})), map[string]int64{"x": 2, "y": 1, "<nil>": 1, "z": 1}; !maps.Equal(got, want) {
		t.Errorf("coded and plain: groups %v, want %v", got, want)
	}

	fixed := colfile.Schema{{Name: "i", Type: colfile.Int64}, {Name: "f", Type: colfile.Float64}}
	nan1, nan2 := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002)
	in := rowsBatch(t, fixed, [][]any{
		{int64(1), math.Copysign(0, -1)}, {int64(1), 0.0}, {int64(1), nan1}, {int64(1), nan2}, {int64(1), nan1},
		{nil, nil}, {nil, nil}, {int64(0), 0.0},
	})
	// A group's key is its first row's: here -0.0, bits 8000000000000000.
	want := map[string]int64{
		"1,8000000000000000": 2, "1,7ff8000000000001": 2, "1,7ff8000000000002": 1, "<nil>,<nil>": 2, "0,0": 1,
	}
	if got := count(fixed, []int{0, 1}, in); !maps.Equal(got, want) {
		t.Errorf("(i, f): groups %v, want %v", got, want)
	}
	if got, want := count(fixed, []int{1}, in), map[string]int64{"8000000000000000": 3, "7ff8000000000001": 2, "7ff8000000000002": 1, "<nil>": 2}; !maps.Equal(got, want) {
		t.Errorf("f alone: groups %v, want %v", got, want)
	}
}

// TestCodingChargedToJoinBudget pins that a build column's coding is charged
// to the join budget the build was admitted under: 8 bytes a code plus its
// dictionary. A probe gathers the column coded exactly when the budget has
// room for that, and plain otherwise, with the same strings either way.
func TestCodingChargedToJoinBudget(t *testing.T) {
	const n = 1000
	bschema := colfile.Schema{{Name: "id", Type: colfile.Int64}, {Name: "s", Type: colfile.String}}
	build := &colfile.Batch{Schema: bschema, Cols: []*colfile.Vec{colfile.NewVec(colfile.Int64), colfile.NewVec(colfile.String)}}
	probe := &colfile.Batch{Schema: colfile.Schema{{Name: "pid", Type: colfile.Int64}}, Cols: []*colfile.Vec{colfile.NewVec(colfile.Int64)}}
	for i := 0; i < n; i++ {
		build.Cols[0].AppendInt(int64(i))
		build.Cols[1].AppendStr(fmt.Sprintf("value-%04d", i%(n/2)))
		probe.Cols[0].AppendInt(int64(n - 1 - i))
	}
	admitted := build.MemSize()
	coding := 8*int64(n) + (n/2)*(16+10) // the codes, and n/2 distinct 10-byte strings
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("value-%04d", (n-1-i)%(n/2)))
	}
	for _, c := range []struct {
		budget int64
		coded  bool
	}{
		{0, true}, // no budget: nothing to charge
		{admitted, false},
		{admitted + 8*n, false}, // the codes fit, the dictionary does not
		{admitted + coding - 1, false},
		{admitted + coding, true},
	} {
		src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 1, SpillConfig{Budget: c.budget, Store: NewMemSpillStore()})
		if err != nil {
			t.Fatal(err)
		}
		if src.Table == nil {
			t.Fatalf("budget %d: the build spilled", c.budget)
		}
		p := &Probe{In: NewBatchSource(probe), Table: src.Table, LeftKeys: []int{0}, Cols: []int{2}, Coded: []int{0}}
		out, err := Collect(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Cols[0].Ints != nil; got != c.coded {
			t.Errorf("budget %d (build %d, coding %d): gathered coded %v, want %v", c.budget, admitted, coding, got, c.coded)
		}
		var got []string
		for i := 0; i < out.NumRows(); i++ {
			got = append(got, out.Cols[0].Str(i))
		}
		if !slices.Equal(got, want) {
			t.Errorf("budget %d: probe strings differ from the build's", c.budget)
		}
		switch room := src.Table.codeRoom; {
		case c.budget <= 0:
		case room == nil:
			t.Errorf("budget %d: the coding is not metered", c.budget)
		case room.Load() < 0:
			t.Errorf("budget %d: %d bytes over it", c.budget, -room.Load())
		case !c.coded && room.Load() != c.budget-admitted:
			t.Errorf("budget %d: a refused coding kept %d bytes", c.budget, c.budget-admitted-room.Load())
		}
	}
}

// sortByGroups orders an aggregate's rows by its first groups columns.
func sortByGroups(b *colfile.Batch, groups int) *colfile.Batch {
	keys := make([]SortKey, groups)
	for i := range keys {
		keys[i].Col = i
	}
	return sortBatch(b, keys)
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
	jt, err := BuildHashJoin(NewBatchList(diffSchema, buildBatches), c.bldKeys, c.typ, c.parallelism)
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
		SpillConfig{Budget: 1, Store: NewMemSpillStore()})
	if err != nil {
		t.Fatal(err)
	}
	if src.Spilled == nil {
		t.Fatalf("%+v: grace build did not spill under a one-byte budget", c)
	}
	joined, counts, err := src.Spilled.JoinBatches(context.Background(), probeBatches, c.probeKeys, diffSchema, nil, c.parallelism)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Collect(NewBatchList(p.Schema(), joined))
	check("spilled bloom-filtered join", got, err)
	return n.Load(), counts.BloomPruned
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
	pairA := appendJoinKey(nil, []*colfile.Vec{{Type: colfile.String, Strs: []string{"a\x00"}}, {Type: colfile.String, Strs: []string{"b"}}}, 0)
	pairB := appendJoinKey(nil, []*colfile.Vec{{Type: colfile.String, Strs: []string{"a"}}, {Type: colfile.String, Strs: []string{"\x00b"}}}, 0)
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
			jt, err := BuildHashJoin(NewBatchSource(in), []int{0}, InnerJoin, parts)
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
	jt, err := BuildHashJoin(NewBatchSource(in), []int{0}, InnerJoin, 1)
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
// table by word and merges each key's partials into one group — NULL its own
// group, the int64 extremes, and keys repeated across partials.
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
	if g := string(batchBytes(sortByGroups(got, 1))); g != want {
		t.Fatalf("merged groups, sorted:\n%s\nwant:\n%s", g, want)
	}
}

// rowHash is the key hash hashKeys gives row r of the key columns vecs.
func rowHash(vecs []*colfile.Vec, r int) uint64 {
	hs := make([]uint64, 1)
	hashKeys(hs, vecs, []int{r}, 0)
	return hs[0]
}
