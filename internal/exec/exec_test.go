package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
)

func intSchema(names ...string) colfile.Schema {
	s := make(colfile.Schema, len(names))
	for i, n := range names {
		s[i] = colfile.Field{Name: n, Type: colfile.Int64}
	}
	return s
}

// prog compiles an expression against an operator's input schema: operators
// take compiled programs only, so tests compile where they construct.
func prog(t testing.TB, in colfile.Schema, e Expr) *Prog {
	t.Helper()
	p, err := Compile(e, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func progs(t testing.TB, in colfile.Schema, es ...Expr) []*Prog {
	t.Helper()
	out := make([]*Prog, len(es))
	for i, e := range es {
		out[i] = prog(t, in, e)
	}
	return out
}

// mustOpen opens a sealed file for a ScanFile.
func mustOpen(t testing.TB, data []byte) *colfile.Reader {
	t.Helper()
	r, err := colfile.OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func makeFile(t *testing.T, schema colfile.Schema, rowGroups [][][]any) []byte {
	t.Helper()
	w := colfile.NewWriter(schema)
	for _, rows := range rowGroups {
		b := colfile.NewBatch(schema)
		for _, r := range rows {
			if err := b.AppendRow(r...); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func lineSchema() colfile.Schema {
	return colfile.Schema{
		{Name: "id", Type: colfile.Int64},
		{Name: "qty", Type: colfile.Int64},
		{Name: "price", Type: colfile.Float64},
		{Name: "tag", Type: colfile.String},
	}
}

func lineFile(t *testing.T, n int) []byte {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 10), float64(i) * 1.5, fmt.Sprintf("tag%d", i%3)}
	}
	return makeFile(t, lineSchema(), [][][]any{rows})
}

func TestScanAllRows(t *testing.T) {
	f := lineFile(t, 100)
	tel := &Telemetry{}
	s, err := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, tel)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 100 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if tel.RowsScanned.Load() != 100 || tel.BytesScanned.Load() != int64(len(f)) {
		t.Fatalf("telemetry = %+v", tel)
	}
}

func TestScanProjection(t *testing.T) {
	f := lineFile(t, 10)
	s, err := NewScan([]ScanFile{{R: mustOpen(t, f)}}, []string{"price", "id"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Collect(s)
	if len(out.Schema) != 2 || out.Schema[0].Name != "price" || out.Schema[1].Name != "id" {
		t.Fatalf("schema = %v", out.Schema)
	}
	if out.Cols[1].Ints[3] != 3 {
		t.Fatalf("id[3] = %d", out.Cols[1].Ints[3])
	}
	if _, err := NewScan([]ScanFile{{R: mustOpen(t, f)}}, []string{"ghost"}, nil, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestScanDeleteVectorFiltering(t *testing.T) {
	f := lineFile(t, 10)
	dv := deletevector.FromRows([]uint32{0, 5, 9})
	s, err := NewScan([]ScanFile{{R: mustOpen(t, f), DV: dv}}, []string{"id"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Collect(s)
	if out.NumRows() != 7 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for _, id := range out.Cols[0].Ints {
		if id == 0 || id == 5 || id == 9 {
			t.Fatalf("deleted row %d visible", id)
		}
	}
}

func TestScanDVSpansRowGroups(t *testing.T) {
	// DV ordinals are file-global; groups of 5 rows each.
	schema := intSchema("k")
	groups := [][][]any{}
	for g := 0; g < 3; g++ {
		rows := [][]any{}
		for i := 0; i < 5; i++ {
			rows = append(rows, []any{int64(g*5 + i)})
		}
		groups = append(groups, rows)
	}
	f := makeFile(t, schema, groups)
	dv := deletevector.FromRows([]uint32{4, 5, 14}) // last of g0, first of g1, last of g2
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f), DV: dv}}, nil, nil, nil)
	out, _ := Collect(s)
	if out.NumRows() != 12 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for _, k := range out.Cols[0].Ints {
		if k == 4 || k == 5 || k == 14 {
			t.Fatalf("deleted row %d visible", k)
		}
	}
}

func TestScanFullyDeletedFile(t *testing.T) {
	f := lineFile(t, 4)
	dv := deletevector.FromRows([]uint32{0, 1, 2, 3})
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f), DV: dv}}, nil, nil, nil)
	out, _ := Collect(s)
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestScanZoneMapPruning(t *testing.T) {
	schema := intSchema("k")
	groups := [][][]any{}
	for g := 0; g < 4; g++ {
		rows := [][]any{}
		for i := 0; i < 10; i++ {
			rows = append(rows, []any{int64(g*100 + i)})
		}
		groups = append(groups, rows)
	}
	f := makeFile(t, schema, groups)
	pred, err := Compile(Bin{Kind: OpAnd,
		L: Bin{Kind: OpGe, L: ColRef{Idx: 0}, R: Const{Val: int64(200)}},
		R: Bin{Kind: OpLe, L: ColRef{Idx: 0}, R: Const{Val: int64(209)}}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	tel := &Telemetry{}
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, pred, tel)
	out, _ := Collect(s)
	if out.NumRows() != 10 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if tel.GroupsPruned.Load() != 3 {
		t.Fatalf("pruned = %d", tel.GroupsPruned.Load())
	}
	if tel.RowsScanned.Load() != 10 {
		t.Fatalf("scanned = %d, pruning ineffective", tel.RowsScanned.Load())
	}

	// A projected scan prunes on the file column its predicate's column
	// names: k is the projection's first column and the file's second.
	wide := colfile.Schema{{Name: "tag", Type: colfile.String}, {Name: "k", Type: colfile.Int64}}
	groups = nil
	for g := 0; g < 5; g++ {
		var rows [][]any
		for i := 0; i < 100; i++ {
			rows = append(rows, []any{"x", int64(g*100 + i)})
		}
		groups = append(groups, rows)
	}
	lt, err := Compile(Bin{Kind: OpLt, L: ColRef{Idx: 0}, R: Const{Val: int64(100)}}, wide[1:])
	if err != nil {
		t.Fatal(err)
	}
	tel = &Telemetry{}
	s, _ = NewScan([]ScanFile{{R: mustOpen(t, makeFile(t, wide, groups))}}, []string{"k"}, lt, tel)
	if out, _ := Collect(s); out.NumRows() != 100 {
		t.Fatalf("projected scan: rows = %d", out.NumRows())
	}
	if tel.GroupsPruned.Load() != 4 {
		t.Fatalf("projected scan: pruned = %d, want 4", tel.GroupsPruned.Load())
	}
}

func TestScanMultipleFiles(t *testing.T) {
	f1 := lineFile(t, 10)
	f2 := lineFile(t, 20)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f1)}, {R: mustOpen(t, f2)}}, nil, nil, nil)
	out, _ := Collect(s)
	if out.NumRows() != 30 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestFilterOperator(t *testing.T) {
	f := lineFile(t, 100)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	// qty = 3
	flt := &Filter{In: s, Pred: prog(t, s.Schema(), Bin{Kind: OpEq, L: ColRef{Idx: 1}, R: Const{Val: int64(3)}})}
	out, err := Collect(flt)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Cols[1].Ints[i] != 3 {
			t.Fatalf("qty = %d", out.Cols[1].Ints[i])
		}
	}
}

// TestCollectPassesLoneDenseBatch: Collect hands a stream of one dense batch
// back uncopied, and copies any other stream — a selected batch before it
// asks for the next, since Filter reuses its selection and header across
// calls.
func TestCollectPassesLoneDenseBatch(t *testing.T) {
	schema := intSchema("k")
	batch := func(lo int) *colfile.Batch {
		b := colfile.NewBatch(schema)
		for k := lo; k < lo+10; k++ {
			b.Cols[0].AppendInt(int64(k))
		}
		return b
	}
	lone := batch(0)
	out, err := Collect(NewBatchSource(lone))
	if err != nil || out.NumRows() != 10 || out.Cols[0] != lone.Cols[0] {
		t.Fatalf("a lone dense batch was copied (or lost): %d rows, err %v", out.NumRows(), err)
	}
	k := ColRef{Idx: 0, Name: "k"}
	for _, c := range []struct {
		pred Expr
		want []int64
	}{
		{Bin{Kind: OpEq, L: Bin{Kind: OpMod, L: k, R: Const{Val: int64(2)}}, R: Const{Val: int64(0)}}, []int64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
		{Bin{Kind: OpLt, L: k, R: Const{Val: int64(13)}}, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}, // a dense batch, then a selected one
	} {
		in := NewBatchList(schema, []*colfile.Batch{batch(0), batch(10)})
		out, err := Collect(&Filter{In: in, Pred: prog(t, schema, c.pred)})
		if err != nil || out.Sel != nil || !reflect.DeepEqual(out.Cols[0].Ints, c.want) {
			t.Fatalf("%s: collected %v (selection %v), err %v; want %v", c.pred, out.Cols[0].Ints, out.Sel, err, c.want)
		}
	}
}

func TestFilterComplexPredicate(t *testing.T) {
	f := lineFile(t, 100)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	// (id < 50 AND qty >= 5) OR tag = 'tag0'
	pred := Bin{Kind: OpOr,
		L: Bin{Kind: OpAnd,
			L: Bin{Kind: OpLt, L: ColRef{Idx: 0}, R: Const{Val: int64(50)}},
			R: Bin{Kind: OpGe, L: ColRef{Idx: 1}, R: Const{Val: int64(5)}},
		},
		R: Bin{Kind: OpEq, L: ColRef{Idx: 3}, R: Const{Val: "tag0"}},
	}
	out, err := Collect(&Filter{In: s, Pred: prog(t, s.Schema(), pred)})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 100; i++ {
		if (i < 50 && i%10 >= 5) || i%3 == 0 {
			want++
		}
	}
	if out.NumRows() != want {
		t.Fatalf("rows = %d, want %d", out.NumRows(), want)
	}
}

func TestProjectExpressions(t *testing.T) {
	f := lineFile(t, 5)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	p := &Project{
		In: s,
		Exprs: progs(t, s.Schema(),
			ColRef{Idx: 0, Name: "id"},
			Bin{Kind: OpMul, L: ColRef{Idx: 1}, R: Const{Val: int64(2)}},
			Bin{Kind: OpMul, L: ColRef{Idx: 2}, R: Const{Val: 2.0}},
		),
		Names: []string{"id", "qty2", "price2"},
	}
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema[1].Name != "qty2" || out.Schema[2].Type != colfile.Float64 {
		t.Fatalf("schema = %v", out.Schema)
	}
	if out.Cols[1].Ints[3] != 6 || out.Cols[2].Floats[2] != 6.0 {
		t.Fatalf("values = %v %v", out.Cols[1].Ints, out.Cols[2].Floats)
	}
}

func TestLimitAndOffset(t *testing.T) {
	f := lineFile(t, 100)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, []string{"id"}, nil, nil)
	out, err := Collect(&Limit{In: s, N: 5, Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 || out.Cols[0].Ints[0] != 10 || out.Cols[0].Ints[4] != 14 {
		t.Fatalf("limit = %v", out.Cols[0].Ints)
	}
}

// batchList is an operator over given batches, in order.
type batchList []*colfile.Batch

func (l *batchList) Schema() colfile.Schema { return (*l)[0].Schema }

func (l *batchList) Next() (*colfile.Batch, error) {
	if len(*l) == 0 {
		return nil, nil
	}
	b := (*l)[0]
	*l = (*l)[1:]
	return b, nil
}

// everyOtherRow returns a batch of rows (k, "row-k") for k in [0, rows) that
// selects every other row, from row 0.
func everyOtherRow(rows int) *colfile.Batch {
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "s", Type: colfile.String}}
	b := colfile.NewBatch(schema)
	for i := 0; i < rows; i++ {
		b.Cols[0].AppendInt(int64(i))
		b.Cols[1].AppendStr(fmt.Sprintf("row-%d", i))
	}
	for i := 0; i < rows; i += 2 {
		b.Sel = append(b.Sel, i)
	}
	return b
}

// TestLimitGathersOnlyKeptRows: LIMIT 3 OFFSET n over a 4,096-row batch that
// selects every other row returns the selection's rows n, n+1 and n+2 (fewer
// at its end). A batch OFFSET skips whole is passed over by its count. What
// the LIMIT allocates is TestLimitAllocatesOnlyKeptRows' (not under -race).
func TestLimitGathersOnlyKeptRows(t *testing.T) {
	const rows = 4096
	b := everyOtherRow(rows)
	limitN := func(n, offset int64, in ...*colfile.Batch) []int64 {
		src := batchList(in)
		out, err := Collect(&Limit{In: &src, N: n, Offset: offset})
		if err != nil {
			t.Fatal(err)
		}
		if out.Sel != nil {
			t.Fatalf("OFFSET %d: a selected result", offset)
		}
		for i, k := range out.Cols[0].Ints {
			if s := out.Cols[1].Value(i); s != fmt.Sprintf("row-%d", k) {
				t.Fatalf("OFFSET %d: row %d is (%d, %v)", offset, i, k, s)
			}
		}
		return out.Cols[0].Ints
	}
	limit := func(offset int64, in ...*colfile.Batch) []int64 { return limitN(3, offset, in...) }
	for _, c := range []struct {
		offset int64
		want   []int64
	}{
		{0, []int64{0, 2, 4}},
		{5, []int64{10, 12, 14}},
		{2046, []int64{4092, 4094}},
		{2048, nil},
	} {
		if got := limit(c.offset, b); !slices.Equal(got, c.want) {
			t.Errorf("LIMIT 3 OFFSET %d = %v, want %v", c.offset, got, c.want)
		}
	}
	if got, want := limit(2047, b, b), []int64{4094, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("LIMIT 3 OFFSET 2047 over two batches = %v, want %v", got, want)
	}
	if got, want := limit(2050, b, b), []int64{4, 6, 8}; !slices.Equal(got, want) {
		t.Errorf("LIMIT 3 OFFSET 2050 over two batches = %v, want %v", got, want)
	}
	// The largest LIMIT, the "OFFSET only" idiom, keeps every row after
	// the OFFSET: LIMIT+OFFSET does not fit an int64.
	for _, offset := range []int64{1, 2049} {
		got := limitN(math.MaxInt64, offset, b, b)
		if len(got) != 2*rows/2-int(offset) || got[0] != 2*(offset%(rows/2)) || got[len(got)-1] != rows-2 {
			t.Errorf("LIMIT MaxInt64 OFFSET %d over two batches: %d rows, %v … %v", offset, len(got), got[:min(len(got), 3)], got[max(len(got)-3, 0):])
		}
	}
}

func TestSortAscDesc(t *testing.T) {
	f := lineFile(t, 50)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	srt := &Sort{In: s, Keys: []SortKey{{Col: 1, Desc: true}, {Col: 0, Desc: false}}}
	out, err := Collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 50 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	// qty descending; within equal qty, id ascending
	for i := 1; i < 50; i++ {
		q0, q1 := out.Cols[1].Ints[i-1], out.Cols[1].Ints[i]
		if q0 < q1 {
			t.Fatalf("qty not descending at %d", i)
		}
		if q0 == q1 && out.Cols[0].Ints[i-1] > out.Cols[0].Ints[i] {
			t.Fatalf("id not ascending within group at %d", i)
		}
	}
}

// hashJoin joins left to right the way the planner composes a join: a
// JoinTable built over right, probed by left.
func hashJoin(t *testing.T, left, right Operator, leftKeys, rightKeys []int, typ JoinType, parallelism int) *colfile.Batch {
	t.Helper()
	jt, err := BuildHashJoin(right, rightKeys, typ, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(&Probe{In: left, Table: jt, LeftKeys: leftKeys})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHashJoinInner(t *testing.T) {
	left := makeFile(t, intSchema("a", "b"), [][][]any{{
		{int64(1), int64(10)}, {int64(2), int64(20)}, {int64(3), int64(30)},
	}})
	right := makeFile(t, intSchema("x", "y"), [][][]any{{
		{int64(2), int64(200)}, {int64(3), int64(300)}, {int64(3), int64(301)}, {int64(4), int64(400)},
	}})
	ls, _ := NewScan([]ScanFile{{R: mustOpen(t, left)}}, nil, nil, nil)
	rs, _ := NewScan([]ScanFile{{R: mustOpen(t, right)}}, nil, nil, nil)
	out := hashJoin(t, ls, rs, []int{0}, []int{0}, InnerJoin, 1)
	if out.NumRows() != 3 { // 2 matches once, 3 matches twice
		t.Fatalf("rows = %d", out.NumRows())
	}
	if len(out.Schema) != 4 {
		t.Fatalf("schema = %v", out.Schema)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left := makeFile(t, intSchema("a"), [][][]any{{{int64(1)}, {int64(2)}}})
	right := makeFile(t, intSchema("x"), [][][]any{{{int64(2)}}})
	ls, _ := NewScan([]ScanFile{{R: mustOpen(t, left)}}, nil, nil, nil)
	rs, _ := NewScan([]ScanFile{{R: mustOpen(t, right)}}, nil, nil, nil)
	out := hashJoin(t, ls, rs, []int{0}, []int{0}, LeftOuterJoin, 1)
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	// row with a=1 has NULL right side
	for i := 0; i < 2; i++ {
		a := out.Cols[0].Ints[i]
		if a == 1 && !out.Cols[1].IsNull(i) {
			t.Fatal("unmatched row has non-NULL right side")
		}
		if a == 2 && out.Cols[1].IsNull(i) {
			t.Fatal("matched row has NULL right side")
		}
	}
}

func TestHashJoinSemi(t *testing.T) {
	left := makeFile(t, intSchema("a"), [][][]any{{{int64(1)}, {int64(2)}, {int64(3)}}})
	right := makeFile(t, intSchema("x"), [][][]any{{{int64(2)}, {int64(2)}, {int64(3)}}})
	ls, _ := NewScan([]ScanFile{{R: mustOpen(t, left)}}, nil, nil, nil)
	rs, _ := NewScan([]ScanFile{{R: mustOpen(t, right)}}, nil, nil, nil)
	out := hashJoin(t, ls, rs, []int{0}, []int{0}, SemiJoin, 1)
	if out.NumRows() != 2 || len(out.Schema) != 1 {
		t.Fatalf("semi rows = %d schema = %v", out.NumRows(), out.Schema)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	schema := intSchema("k")
	lb := colfile.NewBatch(schema)
	_ = lb.AppendRow(nil)
	_ = lb.AppendRow(int64(1))
	rb := colfile.NewBatch(schema)
	_ = rb.AppendRow(nil)
	_ = rb.AppendRow(int64(1))
	out := hashJoin(t, NewBatchSource(lb), NewBatchSource(rb), []int{0}, []int{0}, InnerJoin, 1)
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d; NULL = NULL must not match", out.NumRows())
	}
}

func TestHashAggGrouped(t *testing.T) {
	f := lineFile(t, 30) // tags tag0/tag1/tag2, 10 each
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	agg := &HashAgg{
		In:      s,
		GroupBy: progs(t, s.Schema(), ColRef{Idx: 3, Name: "tag"}),
		Aggs: []AggSpec{
			{Kind: AggCountStar, Name: "n"},
			{Kind: AggSum, Arg: prog(t, s.Schema(), ColRef{Idx: 1}), Name: "sq"},
			{Kind: AggMin, Arg: prog(t, s.Schema(), ColRef{Idx: 0}), Name: "mn"},
			{Kind: AggMax, Arg: prog(t, s.Schema(), ColRef{Idx: 0}), Name: "mx"},
			{Kind: AggAvg, Arg: prog(t, s.Schema(), ColRef{Idx: 2}), Name: "ap"},
		},
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	for i := 0; i < 3; i++ {
		if out.Cols[1].Ints[i] != 10 {
			t.Fatalf("count = %d", out.Cols[1].Ints[i])
		}
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	f := lineFile(t, 10)
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	// filter everything out, then COUNT(*) must still return one row with 0
	flt := &Filter{In: s, Pred: prog(t, s.Schema(), Const{Val: false})}
	agg := &HashAgg{In: flt, Aggs: []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: prog(t, s.Schema(), ColRef{Idx: 1}), Name: "s"},
	}}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Cols[0].Ints[0] != 0 {
		t.Fatalf("global agg = %v", out.Row(0))
	}
	if !out.Cols[1].IsNull(0) {
		t.Fatal("SUM of empty set must be NULL")
	}
}

func TestHashAggSumFloat(t *testing.T) {
	f := lineFile(t, 4) // price = 0, 1.5, 3, 4.5
	s, _ := NewScan([]ScanFile{{R: mustOpen(t, f)}}, nil, nil, nil)
	agg := &HashAgg{In: s, Aggs: []AggSpec{{Kind: AggSum, Arg: prog(t, s.Schema(), ColRef{Idx: 2})}}}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols[0].Floats[0] != 9.0 {
		t.Fatalf("sum = %v", out.Cols[0].Floats[0])
	}
}

func TestExprLike(t *testing.T) {
	schema := colfile.Schema{{Name: "s", Type: colfile.String}}
	b := colfile.NewBatch(schema)
	for _, s := range []string{"hello", "help", "world", "hell"} {
		_ = b.AppendRow(s)
	}
	v, err := (Like{E: ColRef{Idx: 0}, Pattern: "hel%"}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true}
	for i := range want {
		if v.Bools[i] != want[i] {
			t.Fatalf("like[%d] = %v", i, v.Bools[i])
		}
	}
	v, _ = (Like{E: ColRef{Idx: 0}, Pattern: "h_ll_"}).Eval(b)
	want = []bool{true, false, false, false}
	for i := range want {
		if v.Bools[i] != want[i] {
			t.Fatalf("underscore like[%d] = %v", i, v.Bools[i])
		}
	}
}

func TestExprInList(t *testing.T) {
	schema := intSchema("k")
	b := colfile.NewBatch(schema)
	for i := 0; i < 5; i++ {
		_ = b.AppendRow(int64(i))
	}
	v, err := (InList{E: ColRef{Idx: 0}, Vals: []any{int64(1), int64(3)}}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if v.Bools[i] != want[i] {
			t.Fatalf("in[%d] = %v", i, v.Bools[i])
		}
	}
	nv, _ := (InList{E: ColRef{Idx: 0}, Vals: []any{int64(1)}, Negate: true}).Eval(b)
	if nv.Bools[1] || !nv.Bools[0] {
		t.Fatal("NOT IN wrong")
	}
}

func TestExprNullPropagation(t *testing.T) {
	schema := intSchema("a", "b")
	b := colfile.NewBatch(schema)
	_ = b.AppendRow(int64(1), nil)
	_ = b.AppendRow(int64(2), int64(3))
	v, err := (Bin{Kind: OpAdd, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull(0) || v.IsNull(1) || v.Ints[1] != 5 {
		t.Fatalf("null propagation: %v", v)
	}
	nn, _ := (IsNull{E: ColRef{Idx: 1}}).Eval(b)
	if !nn.Bools[0] || nn.Bools[1] {
		t.Fatal("IS NULL wrong")
	}
	inn, _ := (IsNull{E: ColRef{Idx: 1}, Negate: true}).Eval(b)
	if inn.Bools[0] || !inn.Bools[1] {
		t.Fatal("IS NOT NULL wrong")
	}
}

func TestExprDivByZero(t *testing.T) {
	schema := intSchema("a")
	b := colfile.NewBatch(schema)
	_ = b.AppendRow(int64(1))
	if _, err := (Bin{Kind: OpDiv, L: ColRef{Idx: 0}, R: Const{Val: int64(0)}}).Eval(b); err == nil {
		t.Fatal("div by zero accepted")
	}
	if _, err := (Bin{Kind: OpMod, L: ColRef{Idx: 0}, R: Const{Val: int64(0)}}).Eval(b); err == nil {
		t.Fatal("mod by zero accepted")
	}
}

func TestExprNot(t *testing.T) {
	schema := colfile.Schema{{Name: "b", Type: colfile.Bool}}
	b := colfile.NewBatch(schema)
	_ = b.AppendRow(true)
	_ = b.AppendRow(false)
	_ = b.AppendRow(nil)
	v, err := (Not{E: ColRef{Idx: 0}}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bools[0] || !v.Bools[1] || !v.IsNull(2) {
		t.Fatalf("NOT = %v", v)
	}
}

func TestExprStringConcat(t *testing.T) {
	schema := colfile.Schema{{Name: "s", Type: colfile.String}}
	b := colfile.NewBatch(schema)
	_ = b.AppendRow("ab")
	v, err := (Bin{Kind: OpAdd, L: ColRef{Idx: 0}, R: Const{Val: "cd"}}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Strs[0] != "abcd" {
		t.Fatalf("concat = %q", v.Strs[0])
	}
}

func TestExprIntFloatCoercion(t *testing.T) {
	schema := colfile.Schema{{Name: "i", Type: colfile.Int64}, {Name: "f", Type: colfile.Float64}}
	b := colfile.NewBatch(schema)
	_ = b.AppendRow(int64(3), 2.5)
	v, err := (Bin{Kind: OpMul, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != colfile.Float64 || v.Floats[0] != 7.5 {
		t.Fatalf("coerced mul = %v", v)
	}
	cmp, _ := (Bin{Kind: OpGt, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}).Eval(b)
	if !cmp.Bools[0] {
		t.Fatal("3 > 2.5 false")
	}
}

func TestPropertyLikeSelfMatch(t *testing.T) {
	// Any string without wildcard chars matches itself and matches "%".
	f := func(s string) bool {
		return likeMatch(s, "%") && (containsWild(s) || likeMatch(s, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func containsWild(s string) bool {
	for _, c := range s {
		if c == '%' || c == '_' {
			return true
		}
	}
	return false
}

func TestPropertyFilterPartition(t *testing.T) {
	// filter(p) + filter(NOT p) partitions the input rows exactly.
	f := func(vals []int16) bool {
		schema := intSchema("k")
		b := colfile.NewBatch(schema)
		for _, v := range vals {
			_ = b.AppendRow(int64(v))
		}
		pred := Bin{Kind: OpGe, L: ColRef{Idx: 0}, R: Const{Val: int64(0)}}
		pos, err := Collect(&Filter{In: NewBatchSource(b), Pred: prog(t, schema, pred)})
		if err != nil {
			return false
		}
		neg, err := Collect(&Filter{In: NewBatchSource(b), Pred: prog(t, schema, Not{E: pred})})
		if err != nil {
			return false
		}
		return pos.NumRows()+neg.NumRows() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySortIsPermutationAndOrdered(t *testing.T) {
	f := func(vals []int32) bool {
		schema := intSchema("k")
		b := colfile.NewBatch(schema)
		sum := int64(0)
		for _, v := range vals {
			_ = b.AppendRow(int64(v))
			sum += int64(v)
		}
		out, err := Collect(&Sort{In: NewBatchSource(b), Keys: []SortKey{{Col: 0}}})
		if err != nil {
			return false
		}
		if out.NumRows() != len(vals) {
			return false
		}
		var osum int64
		for i := 0; i < out.NumRows(); i++ {
			osum += out.Cols[0].Ints[i]
			if i > 0 && out.Cols[0].Ints[i-1] > out.Cols[0].Ints[i] {
				return false
			}
		}
		return osum == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScanOrdinals: every batch a scan returns can name the file and the
// file-global ordinals of its rows — with and without a pushed predicate,
// past a deletion vector, across files, and inside a row-group window.
func TestScanOrdinals(t *testing.T) {
	schema := colfile.Schema{{Name: "tag", Type: colfile.String}, {Name: "k", Type: colfile.Int64}}
	file := func(first int) []byte {
		var groups [][][]any
		for g := 0; g < 3; g++ {
			var rows [][]any
			for i := 0; i < 5; i++ {
				rows = append(rows, []any{"x", int64(first + g*5 + i)})
			}
			groups = append(groups, rows)
		}
		return makeFile(t, schema, groups)
	}
	files := []ScanFile{
		{R: mustOpen(t, file(0)), DV: deletevector.FromRows([]uint32{4, 5, 6})},
		{R: mustOpen(t, file(100))},
	}
	// k is the projection's second column and the file's second: the
	// narrowed program addresses it as column 0 of a scan projected to k.
	even, err := Compile(Bin{Kind: OpEq, L: Bin{Kind: OpMod, L: ColRef{Idx: 1}, R: Const{Val: int64(2)}}, R: Const{Val: int64(0)}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(s *Scan) map[int][]uint32 {
		got := map[int][]uint32{}
		for {
			b, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return got
			}
			file, ords := s.Ordinals()
			if len(ords) != b.NumRows() {
				t.Fatalf("%d ordinals for a batch of %d rows", len(ords), b.NumRows())
			}
			// k equals first + ordinal, so the rows name their own ordinals.
			kcol := b.Schema.ColIndex("k")
			for i, o := range ords {
				if k := b.Cols[kcol].Ints[b.RowIdx(i)]; k != int64(file*100)+int64(o) {
					t.Fatalf("file %d row %d: ordinal %d for k = %d", file, i, o, k)
				}
			}
			got[file] = append(got[file], ords...)
		}
	}

	s, _ := NewScan(files, nil, nil, nil)
	if got := collect(s); len(got[0]) != 12 || len(got[1]) != 15 || got[0][4] != 7 {
		t.Fatalf("plain scan ordinals = %v", got)
	}

	s, _ = NewScan(files, []string{"k"}, even.Narrow(), nil)
	want := map[int][]uint32{0: {0, 2, 8, 10, 12, 14}, 1: {0, 2, 4, 6, 8, 10, 12, 14}}
	if got := collect(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("pushed scan ordinals = %v, want %v", got, want)
	}

	// The wide scan: the predicate's column is not the leading one.
	s, _ = NewScan(files, nil, even, nil)
	if got := collect(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("wide pushed scan ordinals = %v, want %v", got, want)
	}

	// k % 100 >= 5 passes every row of groups 1 and 2 of both files and none
	// of group 0. File 0's group 1 lost rows 5 and 6 to its deletion vector,
	// so its selection is the live rows 7–9; its group 2 lost none, and
	// neither did file 1's groups, so they are dense batches.
	tail, err := Compile(Bin{Kind: OpGe, L: Bin{Kind: OpMod, L: ColRef{Idx: 1}, R: Const{Val: int64(100)}}, R: Const{Val: int64(5)}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	want = map[int][]uint32{0: {7, 8, 9, 10, 11, 12, 13, 14}, 1: {5, 6, 7, 8, 9, 10, 11, 12, 13, 14}}
	wantSels := [][]int{{2, 3, 4}, nil, nil, nil}
	for _, c := range []struct {
		cols []string
		pred *Prog
	}{{[]string{"k"}, tail.Narrow()}, {nil, tail}} {
		s, _ = NewScan(files, c.cols, c.pred, nil)
		if got := collect(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("every-row scan ordinals = %v, want %v", got, want)
		}
		s, _ = NewScan(files, c.cols, c.pred, nil)
		var sels [][]int
		for {
			b, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			sels = append(sels, b.Sel)
		}
		if !reflect.DeepEqual(sels, wantSels) {
			t.Fatalf("every-row scan selections = %v, want %v", sels, wantSels)
		}
	}

	// A windowed morsel starts counting at its window's first row.
	s, _ = NewMorselScan(Morsel{Files: files[:1], GroupLo: 1, GroupHi: 2}, nil, nil, nil)
	if got := collect(s); !reflect.DeepEqual(got, map[int][]uint32{0: {7, 8, 9}}) {
		t.Fatalf("windowed scan ordinals = %v", got)
	}
}
