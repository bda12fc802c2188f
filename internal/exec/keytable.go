package exec

import (
	"bytes"
	"cmp"
	"errors"
	"math"

	"polaris/internal/colfile"
)

// keyList is a sequence of row keys, each with its hash, addressed by
// position. A key is either encoded bytes (Vec.AppendKey of every key
// column), stored back to back in one arena, or — when the key is one Int64
// column — the machine word itself (wordKey). One list holds one kind.
// Offsets are ints and cannot wrap.
type keyList struct {
	arena  []byte
	ends   []int // key i spans arena[ends[i-1]:ends[i]]; key 0 starts at 0
	words  []int64
	hashes []uint64
}

func (l *keyList) len() int { return len(l.hashes) }

// key returns the bytes of key i; it aliases the arena.
func (l *keyList) key(i int32) []byte {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.arena[start:l.ends[i]]
}

// add appends a copy of key k with hash h.
func (l *keyList) add(k []byte, h uint64) {
	l.arena = append(l.arena, k...)
	l.ends = append(l.ends, len(l.arena))
	l.hashes = append(l.hashes, h)
}

// addWord appends word key w with hash h.
func (l *keyList) addWord(w int64, h uint64) {
	l.words = append(l.words, w)
	l.hashes = append(l.hashes, h)
}

// wordKey reports whether a key over these columns is stored as a machine
// word: exactly one Int64 column. It reads the static type alone.
func wordKey(vecs []*colfile.Vec) bool {
	return len(vecs) == 1 && vecs[0].Type == colfile.Int64
}

// keyTable maps row keys to dense ids, numbered from 0 in first-insertion
// order: a keyList of the distinct keys plus an index over it. It is the one
// key index of the engine: HashAgg and MergeAgg resolve group ids through it,
// and a JoinTable partition resolves a probe key to its build rows. The index
// is open addressing with linear probing over id+1 (0 = empty slot). Two
// keys are the same key iff their bytes (insert/find) or their words
// (insertWord/findWord) are equal — the hash only picks where probing
// starts, so no result can depend on it (callers pass it in; the property
// test passes a constant). Stored hashes let the index grow without
// rehashing a key. A table holds byte keys or word keys, never both.
//
// A word table may also hold one NULL key (insertNull): it has an id like any
// other key but no slot, so no word ever finds it.
//
// Ids are int32, so a caller must not insert into a table that already holds
// maxTableKeys (checkRoom).
type keyTable struct {
	keyList
	slots []int32 // id + 1, 0 = empty; length is a power of two, at most half full
	null  int32   // id + 1 of the NULL key, 0 = none
}

// maxTableKeys is the most keys a keyTable may hold: ids are int32.
const maxTableKeys = math.MaxInt32

var errKeyTableFull = errors.New("exec: more than 2^31-1 distinct keys in one key table")

// checkRoom reports whether n more inserts keep every id an int32.
func (t *keyTable) checkRoom(n int) error {
	if n > maxTableKeys-t.len() {
		return errKeyTableFull
	}
	return nil
}

// find returns the id of key k, or -1 when it was never inserted.
func (t *keyTable) find(k []byte, h uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if id := s - 1; t.hashes[id] == h && bytes.Equal(t.key(id), k) {
			return id
		}
	}
}

// findWord returns the id of word key w, or -1 when it was never inserted.
func (t *keyTable) findWord(w int64, h uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.words[s-1] == w {
			return s - 1
		}
	}
}

// insert returns the id of key k, adding it (added = true, id = the previous
// len) when it is new. The bytes are copied; k may be reused.
func (t *keyTable) insert(k []byte, h uint64) (id int32, added bool) {
	if 2*(t.len()+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && bytes.Equal(t.key(id), k) {
			return id, false
		}
	}
	id = int32(t.len())
	t.add(k, h)
	t.slots[i] = id + 1
	return id, true
}

// insertWord is insert for a word key.
func (t *keyTable) insertWord(w int64, h uint64) (id int32, added bool) {
	if 2*(t.len()+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.words[id] == w {
			return id, false
		}
	}
	id = int32(t.len())
	t.addWord(w, h)
	t.slots[i] = id + 1
	return id, true
}

// insertNull returns the id of a word table's NULL key, adding it the first
// time. The key takes the next id but no slot.
func (t *keyTable) insertNull() (id int32, added bool) {
	if t.null != 0 {
		return t.null - 1, false
	}
	id = int32(t.len())
	t.addWord(0, 0)
	t.null = id + 1
	return id, true
}

// reserve sizes an empty table for n keys — word keys, or encoded ones — so
// inserting them neither moves a slice (the arena aside) nor re-places a key.
func (t *keyTable) reserve(n int, word bool) {
	if word {
		t.words = make([]int64, 0, n)
	} else {
		t.ends = make([]int, 0, n)
	}
	t.hashes = make([]uint64, 0, n)
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.slots = make([]int32, size)
}

// grow doubles the index and re-places every id but the NULL key's by its
// stored hash.
func (t *keyTable) grow() {
	n := 2 * len(t.slots)
	if n < 16 {
		n = 16
	}
	t.slots = make([]int32, n)
	mask := uint64(n - 1)
	for id, h := range t.hashes {
		if int32(id)+1 == t.null {
			continue
		}
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// compareWords orders a word table's ids as their AppendKey bytes would: the
// NULL key first, then by value.
func (t *keyTable) compareWords(a, b int32) int {
	switch {
	case a == b:
		return 0
	case a+1 == t.null:
		return -1
	case b+1 == t.null:
		return 1
	}
	return cmp.Compare(t.words[a], t.words[b])
}

// Key hashing. A row's key hash is computed once, one typed loop per key
// column over a chunk of rows (hashKeys), and every consumer reads that one
// value: the keyTable places by its low bits, partOf picks a build partition
// from its high half, and the bloom filter and each spill depth take a remix
// of it. The hash is fixed and seedless and a function of the key values
// alone — equal keys hash equal on whatever batch, morsel or join side they
// arrive — but no result depends on it: key equality is exact.

// hashSeed starts every row's hash; nullWord is what a NULL key column
// contributes in place of a value.
const (
	hashSeed = 0x9E3779B97F4A7C15
	nullWord = 0x6A09E667F3BCC908
)

// fmix64 is MurmurHash3's 64-bit finalizer: a bijection whose every output
// bit depends on every input bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// remix derives from a row hash an independent hash per seed: the bloom
// filter's probe positions, and each spill depth's partition.
func remix(h, seed uint64) uint64 { return fmix64(h ^ seed*hashSeed) }

// hashKey is the fixed, seedless hash of a byte string (a String key
// column's value): eight bytes at a time through a multiply-rotate round,
// closed by fmix64 so both low and high bits depend on every byte.
func hashKey[T ~string | ~[]byte](k T) uint64 {
	h := uint64(len(k)) + hashSeed
	for len(k) >= 8 {
		w := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
		h = (h ^ w) * 0xff51afd7ed558ccd
		h = h<<31 | h>>33
		k = k[8:]
	}
	if len(k) > 0 {
		var w uint64
		for i := 0; i < len(k); i++ {
			w |= uint64(k[i]) << (8 * uint(i))
		}
		h = (h ^ w) * 0xff51afd7ed558ccd
	}
	return fmix64(h)
}

// hashChunk is how many rows' hashes a caller computes at a time, so its
// scratch stays small and in cache however large the batch.
const hashChunk = 1024

// hashKeys sets hs[r] to the key hash of logical row lo+r over the key
// columns vecs — physical lane sel[lo+r], or lo+r when sel is nil — for every
// r in [0, len(hs)). Each column folds into every row's hash in one typed
// loop: its value as a word (an Int64 as is; a Float64's bits, equal exactly
// when AppendKey's bytes are; a String's hashKey; a Bool as 0 or 1), or
// nullWord for NULL.
//
//polaris:kernel lanes are addressed through sel (or dense from lo), the translation the caller's batch carries
func hashKeys(hs []uint64, vecs []*colfile.Vec, sel []int, lo int) {
	if sel != nil {
		sel = sel[lo : lo+len(hs)]
	}
	for r := range hs {
		hs[r] = hashSeed
	}
	for _, v := range vecs {
		switch v.Type {
		case colfile.Int64:
			for r := range hs {
				w, p := uint64(nullWord), laneFrom(sel, lo, r)
				if !v.IsNull(p) {
					w = uint64(v.Ints[p])
				}
				hs[r] = fmix64(hs[r] ^ w)
			}
		case colfile.Float64:
			for r := range hs {
				w, p := uint64(nullWord), laneFrom(sel, lo, r)
				if !v.IsNull(p) {
					w = math.Float64bits(v.Floats[p])
				}
				hs[r] = fmix64(hs[r] ^ w)
			}
		case colfile.String:
			for r := range hs {
				w, p := uint64(nullWord), laneFrom(sel, lo, r)
				if !v.IsNull(p) {
					w = hashKey(v.Strs[p])
				}
				hs[r] = fmix64(hs[r] ^ w)
			}
		case colfile.Bool:
			for r := range hs {
				w, p := uint64(nullWord), laneFrom(sel, lo, r)
				if !v.IsNull(p) {
					w = 0
					if v.Bools[p] {
						w = 1
					}
				}
				hs[r] = fmix64(hs[r] ^ w)
			}
		}
	}
}

// laneFrom is lane for logical row lo+r when sel is already cut to start at
// lo.
func laneFrom(sel []int, lo, r int) int {
	if sel != nil {
		return sel[r]
	}
	return lo + r
}

// groupTable is the group-id resolver both aggregation phases share: a
// keyTable over the group key — a word for one Int64 column (NULL its own
// unindexed id), the encoded key (see appendGroupKey) otherwise — plus the
// group-key columns themselves, one row per id, which the aggregate emits as
// they are.
type groupTable struct {
	keys   keyTable
	vals   []*colfile.Vec // per group-key column, the key value of every id
	keyBuf []byte
	hashes []uint64
	ids    []int32
}

// resolve maps every logical row of a batch (physical positions sel, or dense
// [0,n)) to its group id, numbering unseen keys in row order. The returned
// slice is scratch, valid until the next call.
//
//polaris:kernel lanes are addressed through sel (or dense [0,n)), the translation the caller's batch carries
func (g *groupTable) resolve(vecs []*colfile.Vec, sel []int, n int) ([]int32, error) {
	if err := g.keys.checkRoom(n); err != nil {
		return nil, err
	}
	if cap(g.ids) < n {
		g.ids = make([]int32, n)
	}
	ids := g.ids[:n]
	if len(vecs) == 0 {
		// A global aggregate: one group under the empty key.
		if n > 0 {
			g.keys.insert(nil, hashSeed)
		}
		clear(ids)
		return ids, nil
	}
	if g.vals == nil {
		g.vals = make([]*colfile.Vec, len(vecs))
		for c, v := range vecs {
			g.vals[c] = colfile.NewVec(v.Type)
		}
	}
	if m := min(n, hashChunk); cap(g.hashes) < m {
		g.hashes = make([]uint64, m)
	}
	word := wordKey(g.vals) // the group-key types are fixed by the first batch
	for lo := 0; lo < n; lo += hashChunk {
		hs := g.hashes[:min(hashChunk, n-lo)]
		hashKeys(hs, vecs, sel, lo)
		for j, h := range hs {
			r := lo + j
			p := lane(sel, r)
			var id int32
			var added bool
			switch {
			case !word:
				g.keyBuf = appendGroupKey(g.keyBuf[:0], vecs, p)
				id, added = g.keys.insert(g.keyBuf, h)
			case vecs[0].IsNull(p):
				id, added = g.keys.insertNull()
			default:
				id, added = g.keys.insertWord(vecs[0].Ints[p], h)
			}
			if added {
				for c, v := range vecs {
					g.vals[c].Append(v, p)
				}
			}
			ids[r] = id
		}
	}
	return ids, nil
}

// compare orders two group ids by their AppendKey bytes, which for a word
// table is NULL first, then by value.
func (g *groupTable) compare(a, b int32) int {
	if wordKey(g.vals) {
		return g.keys.compareWords(a, b)
	}
	return bytes.Compare(g.keys.key(a), g.keys.key(b))
}
