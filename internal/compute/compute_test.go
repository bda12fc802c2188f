package compute

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
	"polaris/internal/objectstore"
)

func testFabric(elastic bool, maxNodes, init int) *Fabric {
	return NewFabric(Config{
		Elastic: elastic, MaxNodes: maxNodes, InitNodes: init,
		SlotsPer: 4, MemBytes: 1 << 20, SSDBytes: 1 << 24,
	})
}

func TestCostModelMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	if m.RemoteRead(1000) >= m.RemoteRead(1_000_000) {
		t.Fatal("remote read not monotonic in bytes")
	}
	if m.MemRead(1<<20) >= m.SSDRead(1<<20) || m.SSDRead(1<<20) >= m.RemoteRead(1<<20) {
		t.Fatal("cache tiers not ordered mem < ssd < remote")
	}
	if m.CPU(0) != 0 || m.CPU(100) != 100*m.RowCPUCost {
		t.Fatal("cpu cost wrong")
	}
}

func TestNodeReadThroughCache(t *testing.T) {
	store := objectstore.New()
	data := make([]byte, 1000)
	if err := store.Put("f", data, 0); err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())

	_, d1, err := n.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := n.ReadFile(store, "f")
	if err != nil {
		t.Fatal(err)
	}
	if d2 >= d1 {
		t.Fatalf("cached read (%v) not faster than cold read (%v)", d2, d1)
	}
	st := n.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st.BytesFromRemote != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNodeSSDHitAfterMemEviction(t *testing.T) {
	store := objectstore.New()
	model := DefaultCostModel()
	// mem fits one file, ssd fits many
	n := NewNode(0, 4, 1200, 1<<24, model)
	for i := 0; i < 3; i++ {
		_ = store.Put(fmt.Sprintf("f%d", i), make([]byte, 1000), 0)
	}
	_, _, _ = n.ReadFile(store, "f0")
	_, _, _ = n.ReadFile(store, "f1") // evicts f0 from mem, stays on ssd
	_, _, _ = n.ReadFile(store, "f0")
	st := n.Stats()
	if st.SSDHits != 1 {
		t.Fatalf("stats = %+v, want one ssd hit", st)
	}
}

func TestNodeWriteThrough(t *testing.T) {
	store := objectstore.New()
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	d, err := n.WriteFile(store, "out", make([]byte, 500), 7)
	if err != nil || d <= 0 {
		t.Fatalf("write: %v %v", d, err)
	}
	if !store.Exists("out") {
		t.Fatal("write-through did not reach store")
	}
	_, rd, _ := n.ReadFile(store, "out")
	if n.Stats().Misses != 0 {
		t.Fatalf("read after write missed cache (%v)", rd)
	}
}

func TestNodeKillDropsCaches(t *testing.T) {
	store := objectstore.New()
	_ = store.Put("f", make([]byte, 100), 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	_, _, _ = n.ReadFile(store, "f")
	n.Kill()
	if n.Alive() {
		t.Fatal("killed node alive")
	}
	n.Revive()
	_, _, _ = n.ReadFile(store, "f")
	if n.Stats().Misses != 2 {
		t.Fatalf("revived node kept caches: %+v", n.Stats())
	}
}

func TestInvalidateCached(t *testing.T) {
	store := objectstore.New()
	_ = store.Put("f", make([]byte, 100), 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	_, _, _ = n.ReadFile(store, "f")
	n.InvalidateCached("f")
	_, _, _ = n.ReadFile(store, "f")
	if n.Stats().Misses != 2 {
		t.Fatalf("invalidate ineffective: %+v", n.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	l := newLRU(250)
	l.put("a", make([]byte, 100))
	l.put("b", make([]byte, 100))
	if l.get("a") == nil {
		t.Fatal("a evicted prematurely")
	}
	l.put("c", make([]byte, 100)) // must evict b (a was touched)
	if l.get("b") != nil {
		t.Fatal("b should be evicted")
	}
	if l.get("a") == nil {
		t.Fatal("a lost")
	}
	if l.get("c") == nil {
		t.Fatal("c lost")
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	l := newLRU(10)
	l.put("big", make([]byte, 100))
	if l.get("big") != nil {
		t.Fatal("oversized entry cached")
	}
	if l.used != 0 {
		t.Fatalf("used = %d", l.used)
	}
}

// An overwrite the cache cannot hold must not leave the key serving what it
// held before: on the parent of this test put returned early and did.
func TestLRUOversizedOverwriteDropsTheKey(t *testing.T) {
	l := newLRU(150)
	l.put("k", make([]byte, 100))
	l.put("other", make([]byte, 40))
	l.put("k", make([]byte, 200))
	if e := l.get("k"); e != nil {
		t.Fatalf("after an oversize overwrite the key still serves %d bytes", len(e.data))
	}
	if l.get("other") == nil || l.used != 40 {
		t.Fatalf("the overwrite disturbed another entry: used = %d", l.used)
	}
}

func TestLRUUpdateSameKey(t *testing.T) {
	l := newLRU(300)
	l.put("k", make([]byte, 100))
	l.put("k", make([]byte, 200))
	if l.used != 200 {
		t.Fatalf("used = %d after update", l.used)
	}
	got := l.get("k")
	if got == nil || len(got.data) != 200 {
		t.Fatal("update lost")
	}
}

func TestElasticAllocationGrows(t *testing.T) {
	f := testFabric(true, 0, 1)
	nodes, delay := f.AllocateForJob(40) // 40 units / 4 slots = 10 nodes
	if len(nodes) != 10 {
		t.Fatalf("allocated %d nodes", len(nodes))
	}
	if delay != DefaultCostModel().ProvisionDelay {
		t.Fatalf("delay = %v", delay)
	}
	if f.Size() != 10 {
		t.Fatalf("fabric size = %d", f.Size())
	}
	// already provisioned: no extra delay
	_, delay2 := f.AllocateForJob(40)
	if delay2 != 0 {
		t.Fatalf("second allocation delay = %v", delay2)
	}
}

func TestBoundedAllocationCaps(t *testing.T) {
	f := testFabric(false, 3, 1)
	nodes, _ := f.AllocateForJob(400)
	if len(nodes) != 3 {
		t.Fatalf("bounded fabric allocated %d nodes", len(nodes))
	}
	if f.Size() != 3 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestAllocateMinimumOneNode(t *testing.T) {
	f := testFabric(true, 0, 0)
	nodes, _ := f.AllocateForJob(0)
	if len(nodes) != 1 {
		t.Fatalf("allocated %d nodes for empty job", len(nodes))
	}
}

func TestKillNode(t *testing.T) {
	f := testFabric(true, 0, 3)
	id := f.Nodes()[1].ID
	if !f.KillNode(id) {
		t.Fatal("kill failed")
	}
	if f.Size() != 2 {
		t.Fatalf("size = %d after kill", f.Size())
	}
	if f.KillNode(id) {
		t.Fatal("double kill succeeded")
	}
	if f.KillNode(999) {
		t.Fatal("killing unknown node succeeded")
	}
	// allocation replaces lost capacity
	nodes, _ := f.AllocateForJob(12)
	if len(nodes) != 3 || f.Size() != 3 {
		t.Fatalf("nodes=%d size=%d", len(nodes), f.Size())
	}
	if f.Provisioned() != 4 {
		t.Fatalf("provisioned = %d", f.Provisioned())
	}
}

func TestFabricString(t *testing.T) {
	f := testFabric(false, 2, 1)
	s := f.String()
	if s == "" || s[:6] != "fabric" {
		t.Fatalf("String = %q", s)
	}
}

func TestSimulatedTimesScaleWithData(t *testing.T) {
	// The elasticity premise of Fig. 7: per-byte read cost is constant, so a
	// 10x larger file takes ~10x longer from remote, while cache hits break
	// that proportionality.
	m := DefaultCostModel()
	small := m.RemoteRead(10 << 20).Seconds()
	big := m.RemoteRead(100 << 20).Seconds()
	ratio := big / small
	if ratio < 8 || ratio > 11 {
		t.Fatalf("remote scaling ratio = %.2f", ratio)
	}
	if m.MemRead(100<<20) > m.RemoteRead(10<<20) {
		t.Fatal("memory read of 100MB should beat remote read of 10MB")
	}
}

func TestProvisionDelayConstant(t *testing.T) {
	f := testFabric(true, 0, 0)
	start := time.Now()
	_, delay := f.AllocateForJob(100)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("AllocateForJob slept for real; provisioning must be simulated")
	}
	if delay <= 0 {
		t.Fatal("no provisioning delay reported")
	}
}

func TestLeaseSlotsBoundsAndRelease(t *testing.T) {
	f := testFabric(false, 2, 2) // 2 nodes x 4 slots = 8 total
	if f.TotalSlots() != 8 {
		t.Fatalf("total slots = %d", f.TotalSlots())
	}
	l1 := f.LeaseSlots(6)
	if l1.Granted() != 6 {
		t.Fatalf("first lease granted %d, want 6", l1.Granted())
	}
	l2 := f.LeaseSlots(6)
	if l2.Granted() != 2 {
		t.Fatalf("second lease granted %d, want the remaining 2", l2.Granted())
	}
	// An exhausted fabric still grants one slot: queries degrade to serial
	// execution instead of blocking.
	l3 := f.LeaseSlots(4)
	if l3.Granted() != 1 {
		t.Fatalf("exhausted lease granted %d, want 1", l3.Granted())
	}
	l1.Release()
	l1.Release() // idempotent
	l3.Release()
	l2.Release()
	if got := f.LeasedSlots(); got != 0 {
		t.Fatalf("leased after release = %d, want 0", got)
	}
	l4 := f.LeaseSlots(100)
	if l4.Granted() != 8 {
		t.Fatalf("full-fabric lease granted %d, want 8", l4.Granted())
	}
	l4.Release()
}

// sealed returns a small sealed colfile of n rows.
func sealed(t *testing.T, n int) []byte {
	t.Helper()
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}}
	b := colfile.NewBatch(schema)
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt(int64(i))
	}
	w := colfile.NewWriter(schema)
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustOpenFile(t *testing.T, n *Node, store *objectstore.Store, path string) *colfile.Reader {
	t.Helper()
	r, _, err := n.OpenFile(store, path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpenFileParsesOncePerCachedCopy(t *testing.T) {
	store := objectstore.New()
	_ = store.Put("f", sealed(t, 10), 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())

	r1 := mustOpenFile(t, n, store, "f")
	for i := 0; i < 5; i++ {
		if r := mustOpenFile(t, n, store, "f"); r != r1 {
			t.Fatal("a cached file was opened again")
		}
	}
	if st := n.Stats(); st.FooterParses != 1 || st.Misses != 1 || st.MemHits != 5 {
		t.Fatalf("stats = %+v, want one parse, one miss, five hits", st)
	}
	// ReadFile shares the entry and never parses.
	if _, _, err := n.ReadFile(store, "f"); err != nil || n.Stats().FooterParses != 1 {
		t.Fatalf("ReadFile: err %v, stats %+v", err, n.Stats())
	}
}

// TestOpenDVDecodesOncePerCachedCopy: a deletion vector is decoded once per
// cached copy of its bytes and shared by every opener; overwriting the bytes
// drops it, and bytes that do not decode are an error on every call.
func TestOpenDVDecodesOncePerCachedCopy(t *testing.T) {
	store := objectstore.New()
	first := deletevector.FromRows([]uint32{1, 2, 3, 9})
	_ = store.Put("d", first.Marshal(), 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	open := func(path string) *deletevector.Vector {
		t.Helper()
		dv, size, _, err := n.OpenDV(store, path)
		if err != nil || size == 0 {
			t.Fatalf("OpenDV: %v, %d bytes", err, size)
		}
		return dv
	}
	dv := open("d")
	for i := 0; i < 5; i++ {
		if open("d") != dv {
			t.Fatal("a cached deletion vector was decoded again")
		}
	}
	if st := n.Stats(); st.DVDecodes != 1 || !dv.Equal(first) {
		t.Fatalf("stats = %+v, vector %v", st, dv)
	}
	second := deletevector.FromRows([]uint32{4, 5, 6, 7})
	if _, err := n.WriteFile(store, "d", second.Marshal(), 0); err != nil {
		t.Fatal(err)
	}
	if got := open("d"); got == dv || !got.Equal(second) || n.Stats().DVDecodes != 2 {
		t.Fatalf("after an overwrite: %v, %d decodes", got, n.Stats().DVDecodes)
	}
	_ = store.Put("bad", []byte("not a vector"), 0)
	for i := 0; i < 2; i++ {
		if _, _, _, err := n.OpenDV(store, "bad"); err == nil {
			t.Fatal("corrupt deletion vector decoded")
		}
	}
}

// charge is what a fully decoded file counts against a memory tier: its bytes
// plus everything its reader then retains.
func charge(t *testing.T, data []byte) int64 {
	t.Helper()
	r, err := colfile.OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	return int64(len(data)) + r.Retained()
}

func mustReadColumn(t *testing.T, r *colfile.Reader) *colfile.Vec {
	t.Helper()
	v, err := r.ReadColumn(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestOpenFileReaderDiesWithItsBytes(t *testing.T) {
	store := objectstore.New()
	f, g := sealed(t, 10), sealed(t, 20)
	_ = store.Put("f", f, 0)
	_ = store.Put("g", g, 0)
	drops := map[string]func(n *Node){
		// The memory tier fits one of the two files decoded: opening g, after
		// a second touch of f has booked f's decoded column, evicts f, whose
		// next open is an SSD hit over a fresh copy of the entry.
		"eviction": func(n *Node) {
			mustOpenFile(t, n, store, "f")
			mustOpenFile(t, n, store, "g")
		},
		"kill":       func(n *Node) { n.Kill(); n.Revive() },
		"invalidate": func(n *Node) { n.InvalidateCached("f") },
		"overwrite": func(n *Node) {
			if _, err := n.WriteFile(store, "f", g, 0); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, drop := range drops {
		n := NewNode(0, 4, charge(t, g)+10, 1<<24, DefaultCostModel())
		r1 := mustOpenFile(t, n, store, "f")
		v1 := mustReadColumn(t, r1)
		if mustReadColumn(t, mustOpenFile(t, n, store, "f")) != v1 {
			t.Fatalf("%s: a cached file's column was decoded again", name)
		}
		before := n.Stats()
		drop(n)
		r2 := mustOpenFile(t, n, store, "f")
		if r2 == r1 {
			t.Errorf("%s: the parsed reader outlived the cached bytes", name)
		}
		if got := n.Stats().FooterParses - before.FooterParses; got < 1 {
			t.Errorf("%s: %d parses after the drop, want a re-parse", name, got)
		}
		if name == "overwrite" && r2.NumRows() != 20 {
			t.Errorf("overwrite: reader still serves the old bytes (%d rows)", r2.NumRows())
		}
		// The decoded column died with the reader: the next read decodes.
		if v2 := mustReadColumn(t, r2); v2 == v1 {
			t.Errorf("%s: the decoded column outlived the cached bytes", name)
		}
		if got := n.Stats().ChunkDecodes - before.ChunkDecodes; got != 1 {
			t.Errorf("%s: %d chunks decoded after the drop, want 1", name, got)
		}
		_ = store.Put("f", f, 0)
	}
}

// A file of many small row groups is mostly footer: its zone maps and chunk
// extents, parsed, hold several times the footer's encoded length. The cache
// entry must be charged at least what the parsed reader holds on the heap,
// or a memory tier full of such files would overshoot its capacity.
func TestFooterChargedAtItsDecodedSize(t *testing.T) {
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "s", Type: colfile.String}}
	w := colfile.NewWriter(schema)
	for g := 0; g < 2000; g++ {
		b := colfile.NewBatch(schema)
		for i := 0; i < 4; i++ {
			b.Cols[0].AppendInt(int64(g*4 + i))
			b.Cols[1].AppendStr(fmt.Sprintf("s%d", g*4+i))
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Twice: the first collection only moves sync.Pool caches — the
	// writer's pooled deflate state among them — to where the second frees
	// them.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := colfile.OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(r)

	store := objectstore.New()
	_ = store.Put("f", data, 0)
	n := NewNode(0, 4, 1<<30, 1<<30, DefaultCostModel())
	mustOpenFile(t, n, store, "f")
	charged := n.memCache.entries["f"].charge - int64(len(data))
	if charged < held {
		t.Fatalf("a reader holding %d bytes of heap is charged %d (footer %d bytes)",
			held, charged, binary.LittleEndian.Uint64(data[len(data)-12:]))
	}
}

// An overwrite larger than the memory tier must not leave the tier serving
// the bytes and the reader it held before (on the parent it did: lru.put
// returned early); the read falls through to the SSD tier's new copy.
func TestOversizeOverwriteIsNotServedStale(t *testing.T) {
	store := objectstore.New()
	small, big := sealed(t, 10), sealed(t, 4000)
	n := NewNode(0, 4, int64(len(big))-1, 1<<24, DefaultCostModel())
	if _, err := n.WriteFile(store, "f", small, 0); err != nil {
		t.Fatal(err)
	}
	if r := mustOpenFile(t, n, store, "f"); r.NumRows() != 10 {
		t.Fatalf("%d rows before the overwrite", r.NumRows())
	}
	if _, err := n.WriteFile(store, "f", big, 0); err != nil {
		t.Fatal(err)
	}
	if data, _, err := n.ReadFile(store, "f"); err != nil || len(data) != len(big) {
		t.Fatalf("ReadFile after the overwrite: %d bytes (%v), want %d", len(data), err, len(big))
	}
	if r := mustOpenFile(t, n, store, "f"); r.NumRows() != 4000 {
		t.Fatalf("OpenFile after the overwrite serves %d rows, want 4000", r.NumRows())
	}
}

// An entry whose decoded form outgrows the whole memory tier is evicted at
// its next touch — once, not looped on — and whoever holds its reader keeps a
// working one.
func TestEntryOutgrowingTheCacheIsEvicted(t *testing.T) {
	store := objectstore.New()
	data := sealed(t, 500)
	_ = store.Put("f", data, 0)
	_ = store.Put("small", make([]byte, 64), 0)
	n := NewNode(0, 4, charge(t, data)-1, 1<<24, DefaultCostModel())
	if _, _, err := n.ReadFile(store, "small"); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		r := mustOpenFile(t, n, store, "f")
		if n.memCache.entries["f"] == nil {
			t.Fatalf("pass %d: bytes and footer fit, yet the entry is gone", pass)
		}
		if all, err := r.ReadAll(); err != nil || all.NumRows() != 500 {
			t.Fatalf("pass %d: %v", pass, err)
		}
		// The touch that books the decoded column finds the entry too large.
		if data, _, err := n.ReadFile(store, "f"); err != nil || len(data) == 0 {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if n.memCache.entries["f"] != nil {
			t.Fatalf("pass %d: an entry larger than the cache stayed in it", pass)
		}
		if n.memCache.entries["small"] == nil {
			t.Fatalf("pass %d: the oversize entry pushed out another", pass)
		}
		if n.memCache.used > n.memCache.capacity {
			t.Fatalf("pass %d: used %d of %d", pass, n.memCache.used, n.memCache.capacity)
		}
		if v, err := r.ReadColumn(0, 0); err != nil || v.Len() != 500 {
			t.Fatalf("pass %d: the evicted entry's reader stopped working: %v", pass, err)
		}
	}
	if st := n.Stats(); st.ChunkDecodes != 3 || st.Misses+st.SSDHits != 4 {
		t.Fatalf("stats = %+v, want one decode and one fetch into the memory tier per pass", st)
	}
}

// TestDecodedBytesCountAgainstCapacity: decoded vectors are billed to the one
// capacity the cache has. A node whose memory tier holds the files' bytes but
// not their decoded form evicts while a scan cycles over them, never books
// more than its capacity, and answers exactly like a node that holds it all.
func TestDecodedBytesCountAgainstCapacity(t *testing.T) {
	store := objectstore.New()
	const files, rows = 8, 400
	var bytes, decoded int64
	for i := 0; i < files; i++ {
		data := sealed(t, rows+i)
		_ = store.Put(fmt.Sprint("f", i), data, 0)
		bytes += int64(len(data))
		decoded += charge(t, data)
	}
	tight := NewNode(0, 4, (bytes+decoded)/2, 1<<24, DefaultCostModel())
	roomy := NewNode(1, 4, 1<<24, 1<<24, DefaultCostModel())
	scan := func(n *Node) (frames [][]byte) {
		for i := 0; i < files; i++ {
			all, err := mustOpenFile(t, n, store, fmt.Sprint("f", i)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			frame, err := colfile.MarshalBatch(all)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
			if n.memCache.used > n.memCache.capacity {
				t.Fatalf("file %d: used %d of %d", i, n.memCache.used, n.memCache.capacity)
			}
		}
		return frames
	}
	for pass := 0; pass < 2; pass++ {
		got, want := scan(tight), scan(roomy)
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("pass %d file %d: the bounded node's rows differ", pass, i)
			}
		}
	}
	if st := roomy.Stats(); st.ChunkDecodes != files || st.SSDHits != 0 {
		t.Fatalf("unbounded node: %+v, want %d decodes", st, files)
	}
	if st := tight.Stats(); st.ChunkDecodes <= files || st.SSDHits == 0 {
		t.Fatalf("bounded node: %+v, want evictions and more than %d decodes", st, files)
	}
}

func TestOpenFileErrorIsNeverCached(t *testing.T) {
	store := objectstore.New()
	bad := sealed(t, 10)
	// Garble the whole footer: its length and the magic stay valid.
	flen := int(binary.LittleEndian.Uint64(bad[len(bad)-12:]))
	for i := len(bad) - 12 - flen; i < len(bad)-12; i++ {
		bad[i] = 0xff
	}
	_ = store.Put("bad", bad, 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	for i := 0; i < 3; i++ {
		if r, _, err := n.OpenFile(store, "bad"); err == nil || r != nil {
			t.Fatalf("call %d: corrupt file opened (%v, %v)", i, r, err)
		}
	}
	if st := n.Stats(); st.FooterParses != 0 {
		t.Fatalf("failed opens counted as parses: %+v", st)
	}
	// The bytes themselves are still served.
	if data, _, err := n.ReadFile(store, "bad"); err != nil || len(data) != len(bad) {
		t.Fatalf("ReadFile of the corrupt blob: %d bytes, %v", len(data), err)
	}
}

func TestOpenFileConcurrentOpenersShareOneReader(t *testing.T) {
	store := objectstore.New()
	_ = store.Put("f", sealed(t, 100), 0)
	n := NewNode(0, 4, 1<<20, 1<<24, DefaultCostModel())
	const openers = 16
	readers := make([]*colfile.Reader, openers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := n.OpenFile(store, "f")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := r.ReadAll(); err != nil {
				t.Error(err)
			}
			readers[i] = r
		}()
	}
	wg.Wait()
	for i, r := range readers {
		if r != readers[0] {
			t.Fatalf("opener %d got its own reader", i)
		}
	}
	before := n.Stats().FooterParses
	if r := mustOpenFile(t, n, store, "f"); r != readers[0] || n.Stats().FooterParses != before {
		t.Fatal("the shared reader was not the one kept")
	}
}
