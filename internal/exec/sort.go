// ORDER BY operators: the serial Sort, and the parallel family — per-worker
// SortRuns / TopN producing sorted runs, merged at the FE by MergeRuns over a
// loser tree. All four order rows by the same encoded sort key
// (colfile.Vec.AppendSortKey, one memcmp per comparison regardless of key
// arity or direction), so serial and parallel plans cannot disagree on
// ordering semantics: NULLs sort first ascending and last descending, and
// ties keep input order (stable). See docs/ARCHITECTURE.md for the full
// cross-DOP determinism contract.

package exec

import (
	"bytes"
	"context"
	"sort"

	"polaris/internal/colfile"
)

// SortKey orders by a column index.
type SortKey struct {
	Col  int
	Desc bool
}

// appendRowSortKey encodes row r's full ORDER BY key — every key column in
// order, each direction-adjusted — into dst (see colfile.Vec.AppendSortKey).
func appendRowSortKey(dst []byte, b *colfile.Batch, keys []SortKey, r int) []byte {
	for _, k := range keys {
		dst = b.Cols[k.Col].AppendSortKey(dst, r, k.Desc)
	}
	return dst
}

// encodedKeys holds the encoded sort key of every row of one batch in a
// single buffer with offsets: no per-row slice headers, no boxing.
type encodedKeys struct {
	buf []byte
	off []int // len = rows+1
}

func encodeSortKeys(b *colfile.Batch, keys []SortKey) encodedKeys {
	n := b.NumRows()
	ek := encodedKeys{off: make([]int, n+1)}
	for r := 0; r < n; r++ {
		ek.buf = appendRowSortKey(ek.buf, b, keys, r)
		ek.off[r+1] = len(ek.buf)
	}
	return ek
}

func (ek encodedKeys) key(r int) []byte { return ek.buf[ek.off[r]:ek.off[r+1]] }

// sortBatch stable-sorts all rows of a batch by the encoded keys and gathers
// the result in one bulk Take. Stability is what makes parallel ORDER BY
// deterministic: equal keys keep input order, so per-run sorts plus the
// merge's run-index tie-break reproduce a serial stable sort exactly.
func sortBatch(all *colfile.Batch, keys []SortKey) *colfile.Batch {
	n := all.NumRows()
	ek := encodeSortKeys(all, keys)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return bytes.Compare(ek.key(idx[a]), ek.key(idx[b])) < 0
	})
	return all.Take(idx)
}

// Sort materializes the input and emits it ordered by the given keys — the
// serial ORDER BY operator: post-aggregation ordering without a LIMIT, where
// the merged aggregate already lives on the FE. Projections use
// SortRuns/TopN per morsel worker plus MergeRuns instead.
type Sort struct {
	In   Operator
	Keys []SortKey
	Tel  *Telemetry

	done bool
}

// Schema implements Operator.
func (s *Sort) Schema() colfile.Schema { return s.In.Schema() }

// Next implements Operator.
func (s *Sort) Next() (*colfile.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	all, err := Collect(s.In)
	if err != nil {
		return nil, err
	}
	if all.NumRows() == 0 {
		return nil, nil
	}
	if s.Tel != nil {
		s.Tel.RowsProcessed.Add(int64(all.NumRows()))
	}
	return sortBatch(all, s.Keys), nil
}

// SortRuns is the per-worker phase of parallel ORDER BY: it drains one
// morsel's stream and emits it as a single sorted run. Mechanically a Sort,
// but with a narrower contract the merge relies on: the run is tie-stable by
// the morsel's input order, so MergeRuns' lowest-run-index tie-break makes
// the k-way merge of all runs byte-identical to a serial stable sort of the
// morsels' concatenation — at every degree of parallelism.
type SortRuns struct {
	In   Operator
	Keys []SortKey
	Tel  *Telemetry

	done bool
}

// Schema implements Operator.
func (s *SortRuns) Schema() colfile.Schema { return s.In.Schema() }

// Next implements Operator.
func (s *SortRuns) Next() (*colfile.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	all, err := Collect(s.In)
	if err != nil {
		return nil, err
	}
	if all.NumRows() == 0 {
		return nil, nil
	}
	if s.Tel != nil {
		s.Tel.RowsProcessed.Add(int64(all.NumRows()))
	}
	return sortBatch(all, s.Keys), nil
}

// TopN keeps the N smallest rows of its input under Keys and emits them as a
// sorted run: the per-worker top-N pushdown of ORDER BY ... LIMIT [OFFSET]
// (N = limit+offset), the classic distributed top-N of the paper's task-DAG
// model — each worker ships at most N rows to the FE merge no matter how
// many rows its morsel holds. The FE runs it too, over the merged groups of
// ORDER BY <aggregate> LIMIT k, in place of a full Sort.
//
// Memory is bounded by O(N + batch): a max-heap of the current N best rows
// ordered by (encoded key, arrival), so a late-arriving tie always loses and
// the kept rows are exactly the first N of the worker's stable-sorted
// stream; admitted rows land in an append-only store that is compacted once
// evictions let it grow past ~2N rows.
type TopN struct {
	In   Operator
	Keys []SortKey
	N    int64 // max rows to keep; <= 0 keeps none
	Tel  *Telemetry

	done bool
}

// Schema implements Operator.
func (t *TopN) Schema() colfile.Schema { return t.In.Schema() }

// topEntry is one heap slot: the row's encoded key, its position in the
// store batch, and its global arrival index (the stability tie-break).
type topEntry struct {
	key []byte
	row int
	seq int64
}

// topNHeap is a max-heap over (key, seq): the root is the worst kept row,
// the one a strictly smaller newcomer evicts. Arrival indexes are unique and
// increasing, so an incoming tie compares greater than the root and is
// rejected — earlier rows win ties, preserving stability.
type topNHeap []topEntry

func (h topNHeap) entryLess(a, b topEntry) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (h topNHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.entryLess(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h topNHeap) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.entryLess(h[c], h[c+1]) {
			c++
		}
		if !h.entryLess(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Next implements Operator.
func (t *TopN) Next() (*colfile.Batch, error) {
	if t.done {
		return nil, nil
	}
	t.done = true
	if t.N <= 0 {
		return nil, nil
	}
	var (
		store   = colfile.NewBatch(t.In.Schema())
		heap    topNHeap
		keyBuf  []byte
		seq     int64
		compact = int(t.N)
	)
	if compact < DefaultBatchSize {
		compact = DefaultBatchSize
	}
	appendRow := func(b *colfile.Batch, r int) int {
		for c := range store.Cols {
			store.Cols[c].Append(b.Cols[c], r)
		}
		return store.NumRows() - 1
	}
	for {
		b, err := t.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if t.Tel != nil {
			t.Tel.RowsProcessed.Add(int64(b.NumRows()))
		}
		for r := 0; r < b.NumRows(); r++ {
			phys := b.RowIdx(r) // logical order == ascending physical order
			keyBuf = appendRowSortKey(keyBuf[:0], b, t.Keys, phys)
			seq++
			switch {
			case int64(len(heap)) < t.N:
				e := topEntry{key: append([]byte(nil), keyBuf...), row: appendRow(b, phys), seq: seq}
				heap = append(heap, e)
				heap.siftUp(len(heap) - 1)
			case bytes.Compare(keyBuf, heap[0].key) < 0:
				// the evicted root's key buffer becomes the newcomer's
				heap[0] = topEntry{key: append(heap[0].key[:0], keyBuf...), row: appendRow(b, phys), seq: seq}
				heap.siftDown(0)
			}
		}
		// Evictions leave dead rows behind; rebuild the store from the live
		// heap entries before it outgrows ~2N.
		if store.NumRows() >= len(heap)+compact {
			idx := make([]int, len(heap))
			for i := range heap {
				idx[i] = heap[i].row
				heap[i].row = i
			}
			store = store.Take(idx)
		}
	}
	if len(heap) == 0 {
		return nil, nil
	}
	// Emit the kept rows in final order: key, then arrival (stable).
	entries := []topEntry(heap)
	sort.Slice(entries, func(a, b int) bool { return heap.entryLess(entries[a], entries[b]) })
	idx := make([]int, len(entries))
	for i, e := range entries {
		idx[i] = e.row
	}
	return store.Take(idx), nil
}

// MergeRuns k-way merges the sorted runs produced by SortRuns or TopN
// workers into one globally ordered stream — the gather side of parallel
// ORDER BY. A loser tree picks the next row with one comparison per level
// (log k memcmps per row); ties between runs resolve to the lowest run
// index, which — runs being tie-stable and in morsel order — makes the
// output byte-identical to a serial stable sort at every DOP. A non-negative
// limit stops the merge after that many rows (top-N early cutoff): the FE
// never materializes more than limit rows even when the runs hold far more.
type MergeRuns struct {
	schema colfile.Schema
	runs   []*colfile.Batch
	keys   []SortKey
	limit  int64

	lt      *loserTree
	ek      []encodedKeys
	pos     []int
	emitted int64
	started bool
	done    bool
}

// NewMergeRuns builds the merge over per-morsel runs in morsel order (nil
// and empty entries — morsels with no surviving rows — are skipped). The
// schema parameter covers the all-empty case; limit < 0 merges everything.
func NewMergeRuns(schema colfile.Schema, runs []*colfile.Batch, keys []SortKey, limit int64) *MergeRuns {
	m := &MergeRuns{schema: schema, keys: keys, limit: limit}
	for _, r := range runs {
		if r != nil && r.NumRows() > 0 {
			m.runs = append(m.runs, r)
		}
	}
	return m
}

// Schema implements Operator.
func (m *MergeRuns) Schema() colfile.Schema { return m.schema }

// runLess orders two runs by their current head row; an exhausted run is an
// infinite sentinel and ties go to the lower run index (= morsel order).
func (m *MergeRuns) runLess(a, b int) bool {
	ae := m.pos[a] >= m.runs[a].NumRows()
	be := m.pos[b] >= m.runs[b].NumRows()
	if ae || be {
		return !ae && be || (ae == be && a < b)
	}
	if c := bytes.Compare(m.ek[a].key(m.pos[a]), m.ek[b].key(m.pos[b])); c != 0 {
		return c < 0
	}
	return a < b
}

// Next implements Operator.
func (m *MergeRuns) Next() (*colfile.Batch, error) {
	if m.done {
		return nil, nil
	}
	if !m.started {
		m.started = true
		if len(m.runs) == 0 {
			m.done = true
			return nil, nil
		}
		m.pos = make([]int, len(m.runs))
		// The fan-out ships only batches, so the runs' keys are re-encoded
		// here — fanned over the shared ForEachIndexed pool, one unit per
		// run, as the last parallel stage before the inherently serial
		// merge. Encoding is infallible, so the error is statically nil.
		m.ek = make([]encodedKeys, len(m.runs))
		//polaris:ctx Operator.Next carries no context; one bounded, infallible key-encoding pass per run
		_ = ForEachIndexed(context.Background(), len(m.runs), len(m.runs), func(_ context.Context, i int) error {
			m.ek[i] = encodeSortKeys(m.runs[i], m.keys)
			return nil
		})
		m.lt = newLoserTree(len(m.runs), m.runLess)
	}
	out := colfile.NewBatch(m.runs[0].Schema)
	for out.NumRows() < DefaultBatchSize {
		if m.limit >= 0 && m.emitted >= m.limit {
			m.done = true
			break
		}
		w := m.lt.winner()
		if m.pos[w] >= m.runs[w].NumRows() {
			m.done = true
			break
		}
		for c := range out.Cols {
			out.Cols[c].Append(m.runs[w].Cols[c], m.pos[w])
		}
		m.pos[w]++
		m.emitted++
		m.lt.replay(w)
	}
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}

// loserTree is a tournament tree over k runs: node[1..k-1] hold the losers
// of their sub-tournaments, node[0] the overall winner. Selecting the next
// row after advancing run w replays only w's leaf-to-root path — one
// comparison per level — instead of the k-1 comparisons of a linear scan.
type loserTree struct {
	k    int
	node []int
	less func(a, b int) bool
}

// newLoserTree runs the initial tournament. The first contender to reach an
// empty internal node parks there; the sibling subtree's winner plays it on
// the way up, so initialization is O(k) comparisons total.
func newLoserTree(k int, less func(a, b int) bool) *loserTree {
	lt := &loserTree{k: k, node: make([]int, k), less: less}
	for i := range lt.node {
		lt.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		lt.replay(i)
	}
	return lt
}

// winner returns the run index holding the smallest current head row.
func (lt *loserTree) winner() int { return lt.node[0] }

// replay re-runs the tournament along run i's leaf-to-root path (leaf i sits
// below internal node (k+i)/2): the path's stored losers each play the
// ascending winner, and the last one standing becomes node[0].
func (lt *loserTree) replay(i int) {
	winner := i
	for n := (lt.k + i) / 2; n >= 1; n /= 2 {
		if lt.node[n] == -1 {
			lt.node[n] = winner
			return
		}
		if lt.less(lt.node[n], winner) {
			winner, lt.node[n] = lt.node[n], winner
		}
	}
	lt.node[0] = winner
}
