package deletevector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	v := New()
	if !v.IsEmpty() || v.Cardinality() != 0 || v.Contains(0) {
		t.Fatalf("empty vector misbehaves: %v", v)
	}
}

func TestAddAndContains(t *testing.T) {
	v := New()
	v.Add(5)
	v.Add(7)
	v.Add(6)
	if !v.Contains(5) || !v.Contains(6) || !v.Contains(7) {
		t.Fatalf("missing rows: %v", v)
	}
	if v.Contains(4) || v.Contains(8) {
		t.Fatalf("extra rows: %v", v)
	}
	if v.Cardinality() != 3 {
		t.Fatalf("cardinality = %d", v.Cardinality())
	}
	if len(v.runs) != 1 {
		t.Fatalf("adjacent adds should coalesce into one run: %v", v)
	}
}

func TestAddRangeMerging(t *testing.T) {
	v := New()
	v.AddRange(10, 20)
	v.AddRange(30, 40)
	v.AddRange(15, 35) // bridges both
	if len(v.runs) != 1 || v.runs[0] != (run{10, 40}) {
		t.Fatalf("runs = %v", v.runs)
	}
	v.AddRange(40, 45) // adjacent extends
	if len(v.runs) != 1 || v.runs[0] != (run{10, 45}) {
		t.Fatalf("adjacent extend failed: %v", v.runs)
	}
	v.AddRange(0, 0) // empty no-op
	if v.Cardinality() != 35 {
		t.Fatalf("cardinality = %d", v.Cardinality())
	}
}

func TestFromRows(t *testing.T) {
	v := FromRows([]uint32{9, 1, 2, 3, 7, 9, 9})
	if v.Cardinality() != 5 {
		t.Fatalf("cardinality = %d, want 5 (dups collapse)", v.Cardinality())
	}
	want := []uint32{1, 2, 3, 7, 9}
	got := v.Rows()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
	if FromRows(nil).Cardinality() != 0 {
		t.Fatal("FromRows(nil) not empty")
	}
}

func TestUnion(t *testing.T) {
	a := FromRows([]uint32{1, 2, 3})
	b := FromRows([]uint32{3, 4, 10})
	a.Union(b)
	if a.Cardinality() != 5 {
		t.Fatalf("cardinality = %d", a.Cardinality())
	}
	for _, r := range []uint32{1, 2, 3, 4, 10} {
		if !a.Contains(r) {
			t.Fatalf("missing %d after union", r)
		}
	}
	a.Union(nil) // nil is a no-op
	if a.Cardinality() != 5 {
		t.Fatal("union with nil changed vector")
	}
}

// TestAppendLiveIgnoresRowsPastWindow: a fixed case written out — deleted
// rows inside the window are skipped and one past it is ignored.
func TestAppendLiveIgnoresRowsPastWindow(t *testing.T) {
	v := FromRows([]uint32{0, 2, 9})
	if got, want := v.AppendLive(nil, 0, 5), []int{1, 3, 4}; !sameInts(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	v := FromRows([]uint32{0, 1, 2, 100, 5000, 5001})
	data := v.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
}

func TestMarshalEmpty(t *testing.T) {
	data := New().Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsEmpty() {
		t.Fatalf("got %v", got)
	}
}

// encoded returns the magic followed by vals as uvarints: a run count, then
// (gap, length) pairs.
func encoded(vals ...uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, magic)
	for _, x := range vals {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"nil":                     nil,
		"short":                   {1, 2, 3},
		"truncated count":         {0x43, 0x45, 0x56, 0x44, 0xFF}, // magic ok, 0xFF needs continuation
		"empty run":               encoded(1, 3, 0),
		"end wraps the row space": encoded(1, math.MaxUint32, 2),
		"length past uint32":      encoded(1, 0, 1<<32),
		"adjacent runs":           encoded(2, 0, 1, 0, 1),
		"trailing bytes":          append(FromRows([]uint32{4, 9}).Marshal(), 0),
		// One run of one row, its count written 0x81 0x00: the value 1 in
		// two bytes where one does.
		"overlong varint": append(binary.LittleEndian.AppendUint32(nil, magic), 0x81, 0x00, 0x01, 0x01),
	}
	for name, c := range cases {
		if v, err := Unmarshal(c); err == nil {
			t.Errorf("%s: corrupt input accepted as %v", name, v)
		}
	}
	if _, err := Unmarshal(encoded(1, 1, 1)); err != nil {
		t.Errorf("the overlong varint's control: %v", err)
	}
}

// FuzzDeletionVectorUnmarshal: any bytes give a vector or an error, never a
// panic, and a vector is canonical — its runs ascending, non-empty,
// non-adjacent and inside the uint32 row space — and survives a Marshal
// round trip.
func FuzzDeletionVectorUnmarshal(f *testing.F) {
	f.Add(New().Marshal())
	f.Add(FromRows([]uint32{0, 1, 2, 100, 5000, 5001}).Marshal())
	f.Add(FromRows([]uint32{math.MaxUint32 - 1}).Marshal())
	f.Add(encoded(1, math.MaxUint32, 2))
	f.Add(encoded(1, 0, 1<<32))
	f.Add(encoded(2, 0, 1, 0, 1))
	f.Add(append(FromRows([]uint32{4, 9}).Marshal(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		first, prevEnd := true, 0
		all := v.Runs(0, math.MaxUint32+1)
		for start, end, ok := all.Next(); ok; start, end, ok = all.Next() {
			if start >= end || (!first && start <= prevEnd) {
				t.Fatalf("non-canonical run [%d,%d) after end %d in %v", start, end, prevEnd, v)
			}
			first, prevEnd = false, end
		}
		back, err := Unmarshal(v.Marshal())
		if err != nil || !back.Equal(v) {
			t.Fatalf("round trip of %v: %v, %v", v, back, err)
		}
		// The run cursor agrees with Contains on windows at 0, at the top of
		// the row space and around the first few runs.
		checkRuns(t, v, 0, 64)
		checkRuns(t, v, math.MaxUint32-64, 64)
		all = v.Runs(0, math.MaxUint32+1)
		for i := 0; i < 4; i++ {
			lo, hi, ok := all.Next()
			if !ok {
				break
			}
			start, end := uint32(lo), uint32(hi)
			base := start - min(start, 3)
			checkRuns(t, v, base, int(min(uint64(end-base)+3, 256, math.MaxUint32+1-uint64(base))))
		}
	})
}

// TestRunsOverWholeVector: a cursor over a window from row 0 that covers
// every row walks the vector's maximal runs in order.
func TestRunsOverWholeVector(t *testing.T) {
	v := FromRows([]uint32{1, 2, 3, 10})
	var got [][2]int
	r := v.Runs(0, math.MaxUint32+1)
	for lo, hi, ok := r.Next(); ok; lo, hi, ok = r.Next() {
		got = append(got, [2]int{lo, hi})
	}
	if len(got) != 2 || got[0] != [2]int{1, 4} || got[1] != [2]int{10, 11} {
		t.Fatalf("runs = %v", got)
	}
}

func TestStringFormat(t *testing.T) {
	v := FromRows([]uint32{1, 3, 4, 5})
	if s := v.String(); s != "dv{1,3-5}" {
		t.Fatalf("String = %q", s)
	}
}

func TestPropertySetSemantics(t *testing.T) {
	// A Vector behaves exactly like a set of uint32s (bounded domain so runs merge).
	f := func(rows []uint16) bool {
		set := map[uint32]bool{}
		v := New()
		for _, r := range rows {
			v.Add(uint32(r))
			set[uint32(r)] = true
		}
		if v.Cardinality() != len(set) {
			return false
		}
		for r := range set {
			if !v.Contains(r) {
				return false
			}
		}
		// round-trip preserves equality
		back, err := Unmarshal(v.Marshal())
		return err == nil && back.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionIsSetUnion(t *testing.T) {
	f := func(a, b []uint16) bool {
		va, vb := New(), New()
		set := map[uint32]bool{}
		for _, r := range a {
			va.Add(uint32(r))
			set[uint32(r)] = true
		}
		for _, r := range b {
			vb.Add(uint32(r))
			set[uint32(r)] = true
		}
		va.Union(vb)
		if va.Cardinality() != len(set) {
			return false
		}
		for r := range set {
			if !va.Contains(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	v := New()
	ref := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		start := uint32(rng.Intn(1000))
		length := uint32(rng.Intn(20) + 1)
		v.AddRange(start, start+length)
		for x := start; x < start+length; x++ {
			ref[x] = true
		}
	}
	if v.Cardinality() != len(ref) {
		t.Fatalf("cardinality = %d, ref = %d", v.Cardinality(), len(ref))
	}
	for x := uint32(0); x < 1100; x++ {
		if v.Contains(x) != ref[x] {
			t.Fatalf("Contains(%d) = %v, ref %v", x, v.Contains(x), ref[x])
		}
	}
	// runs must be sorted, non-overlapping, non-adjacent
	for i := 1; i < len(v.runs); i++ {
		if v.runs[i].start <= v.runs[i-1].end {
			t.Fatalf("runs not normalized: %v", v.runs)
		}
	}
}

// liveByContains is the reference for AppendLive: one Contains per row.
func liveByContains(v *Vector, base uint32, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if !v.Contains(base + uint32(i)) {
			out = append(out, i)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendLiveMatchesContains: the run walk emits exactly the offsets a
// Contains loop keeps, on random vectors and windows, and on the edges —
// runs straddling either end of the window, an empty vector, a window past
// the last run, a window inside one run, an empty window — appending after
// what dst already holds.
func TestAppendLiveMatchesContains(t *testing.T) {
	check := func(v *Vector, base uint32, n int) {
		t.Helper()
		got := v.AppendLive([]int{-7}, base, n)
		if want := append([]int{-7}, liveByContains(v, base, n)...); !sameInts(got, want) {
			t.Fatalf("%v window [%d,%d): AppendLive = %v, want %v", v, base, uint64(base)+uint64(n), got, want)
		}
	}
	straddle := FromRows([]uint32{2, 3, 4, 5, 9, 14, 15, 16})
	check(straddle, 4, 10) // runs cross both ends
	check(straddle, 0, 30)
	check(straddle, 3, 2) // inside one run
	check(straddle, 17, 8)
	check(straddle, 100, 5) // past the last run
	check(straddle, 5, 0)   // empty window
	check(New(), 0, 10)
	check(New(), 1<<31, 3)
	edge := New()
	edge.AddRange(math.MaxUint32-4, math.MaxUint32)
	check(edge, math.MaxUint32-10, 10) // the window ends at the top of the row space

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		var rows []uint32
		for j := r.Intn(60); j > 0; j-- {
			start := uint32(r.Intn(400))
			for k := r.Intn(8); k >= 0; k-- {
				rows = append(rows, start+uint32(k))
			}
		}
		check(FromRows(rows), uint32(r.Intn(420)), r.Intn(200))
	}
}

// checkRuns checks the run cursor over the window of n rows from base
// against Contains: its runs are non-empty, ascending, never adjoining the
// one before (the vector's runs are maximal), inside the window, and cover
// exactly the window's deleted offsets. A copy of the cursor walks the same
// runs again.
func checkRuns(t testing.TB, v *Vector, base uint32, n int) {
	t.Helper()
	deleted := make([]bool, n)
	r := v.Runs(base, n)
	again := r
	prev := -1
	for lo, hi, ok := r.Next(); ok; lo, hi, ok = r.Next() {
		if lo >= hi || lo <= prev || hi > n {
			t.Fatalf("%v window [%d,+%d): run [%d,%d) after one ending at %d", v, base, n, lo, hi, prev)
		}
		if lo2, hi2, ok2 := again.Next(); !ok2 || lo2 != lo || hi2 != hi {
			t.Fatalf("%v window [%d,+%d): a copy of the cursor walked [%d,%d), not [%d,%d)", v, base, n, lo2, hi2, lo, hi)
		}
		for x := lo; x < hi; x++ {
			deleted[x] = true
		}
		prev = hi
	}
	if _, _, ok := r.Next(); ok {
		t.Fatalf("%v window [%d,+%d): the cursor moved past its end", v, base, n)
	}
	for x, d := range deleted {
		if want := v.Contains(base + uint32(x)); d != want {
			t.Fatalf("%v window [%d,+%d): offset %d deleted=%v, Contains says %v", v, base, n, x, d, want)
		}
	}
}

// TestRunsMatchContains: the run cursor marks exactly the rows Contains
// deletes, on random vectors and windows, and on the edges — windows at 0,
// at the top of the row space, past every run, inside one run, between two
// runs, empty — and walking it allocates nothing.
func TestRunsMatchContains(t *testing.T) {
	straddle := FromRows([]uint32{2, 3, 4, 5, 9, 14, 15, 16})
	checkRuns(t, straddle, 0, 30)
	checkRuns(t, straddle, 0, 2)   // at 0, no run inside
	checkRuns(t, straddle, 4, 10)  // runs cross both ends
	checkRuns(t, straddle, 3, 2)   // inside one run
	checkRuns(t, straddle, 6, 3)   // between two runs
	checkRuns(t, straddle, 100, 5) // past the last run
	checkRuns(t, straddle, 5, 0)   // empty window
	checkRuns(t, New(), 0, 10)     // empty vector
	checkRuns(t, New(), 1<<31, 3)  // empty vector, high window
	edge := New()
	edge.AddRange(0, 3)
	edge.AddRange(math.MaxUint32-4, math.MaxUint32)
	checkRuns(t, edge, math.MaxUint32-10, 10) // the window ends at the top of the row space
	checkRuns(t, edge, math.MaxUint32-3, 3)   // inside the top run
	checkRuns(t, edge, math.MaxUint32-20, 8)  // below the top run, no run inside
	checkRuns(t, edge, 0, 8)

	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		var rows []uint32
		top := uint32(0)
		if r.Intn(4) == 0 {
			top = math.MaxUint32 - 500 // the same shapes at the top of the row space
		}
		for j := r.Intn(60); j > 0; j-- {
			start := top + uint32(r.Intn(400))
			for k := r.Intn(8); k >= 0; k-- {
				rows = append(rows, start+uint32(k))
			}
		}
		base := top
		if r.Intn(5) > 0 {
			base += uint32(r.Intn(420))
		}
		checkRuns(t, FromRows(rows), base, r.Intn(min(200, int(math.MaxUint32-base)+1)))
	}

	many := New()
	for x := uint32(0); x < 8192; x += 3 {
		many.Add(x)
	}
	if a := testing.AllocsPerRun(20, func() {
		c := many.Runs(1000, 4096)
		for _, _, ok := c.Next(); ok; _, _, ok = c.Next() {
		}
	}); a != 0 {
		t.Fatalf("walking the runs of a window allocates %v times, want 0", a)
	}
}

// TestUnionMatchesFromRows: Union is the set union, built by one linear merge
// into one new slice however many runs either side holds.
func TestUnionMatchesFromRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randomRows := func() []uint32 {
		var rows []uint32
		for j := r.Intn(40); j > 0; j-- {
			start := uint32(r.Intn(300))
			for k := r.Intn(6); k >= 0; k-- {
				rows = append(rows, start+uint32(k))
			}
		}
		return rows
	}
	for i := 0; i < 500; i++ {
		a, b := randomRows(), randomRows()
		got := FromRows(a).Union(FromRows(b))
		if want := FromRows(append(append([]uint32(nil), a...), b...)); !got.Equal(want) {
			t.Fatalf("%v ∪ %v = %v, want %v", FromRows(a), FromRows(b), got, want)
		}
	}

	var ra, rb []uint32
	for i := uint32(0); i < 2000; i++ {
		ra = append(ra, 4*i)
		rb = append(rb, 4*i+2)
	}
	a, b := FromRows(ra), FromRows(rb)
	allocs := testing.AllocsPerRun(10, func() {
		v := &Vector{runs: a.runs}
		v.Union(b)
	})
	if allocs > 1 {
		t.Fatalf("a union of two 2,000-run vectors allocates %.0f slices, want at most 1", allocs)
	}
}
