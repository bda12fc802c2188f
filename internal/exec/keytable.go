package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"polaris/internal/colfile"
)

// keyList is a sequence of encoded row keys (Vec.AppendKey bytes) stored back
// to back in one arena, each with its hash, addressed by position. Offsets
// are ints and cannot wrap.
type keyList struct {
	arena  []byte
	ends   []int // key i spans arena[ends[i-1]:ends[i]]; key 0 starts at 0
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

// reserve makes room for n more keys, so adding them moves only the arena.
func (l *keyList) reserve(n int) {
	l.ends = slices.Grow(l.ends, n)
	l.hashes = slices.Grow(l.hashes, n)
}

// add appends a copy of key k with hash h.
func (l *keyList) add(k []byte, h uint64) {
	l.arena = append(l.arena, k...)
	l.ends = append(l.ends, len(l.arena))
	l.hashes = append(l.hashes, h)
}

// keyTable maps encoded row keys to dense ids, numbered from 0 in
// first-insertion order: a keyList of the distinct keys plus an index over
// it. It is the one key index of the engine: HashAgg and MergeAgg resolve
// group ids through it, and a JoinTable partition resolves a probe key to its
// build rows. The index is open addressing with linear probing over id+1
// (0 = empty slot), and two keys are the same key iff their bytes are equal —
// the hash only picks where probing starts, so no result can depend on it
// (callers pass it in; the property test passes a constant). Stored hashes
// let the index grow without rehashing a byte.
//
// Ids are int32, so a caller must not insert into a table that already holds
// maxTableKeys (checkRoom).
type keyTable struct {
	keyList
	slots []int32 // id + 1, 0 = empty; length is a power of two, at most half full
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

// grow doubles the index and re-places every id by its stored hash.
func (t *keyTable) grow() {
	n := 2 * len(t.slots)
	if n < 16 {
		n = 16
	}
	t.slots = make([]int32, n)
	mask := uint64(n - 1)
	for id, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// hashKey is the fixed, seedless hash of an encoded key: eight bytes at a
// time through a multiply-rotate round, closed by MurmurHash3's 64-bit
// finalizer so both the low bits (slot choice) and the high bits (join
// partition choice) depend on every input byte.
func hashKey(k []byte) uint64 {
	h := uint64(len(k)) + 0x9E3779B97F4A7C15
	for len(k) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(k)) * 0xff51afd7ed558ccd
		h = h<<31 | h>>33
		k = k[8:]
	}
	if len(k) > 0 {
		var w uint64
		for i, b := range k {
			w |= uint64(b) << (8 * uint(i))
		}
		h = (h ^ w) * 0xff51afd7ed558ccd
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// groupTable is the group-id resolver both aggregation phases share: a
// keyTable over the encoded group key (see appendGroupKey) plus the group-key
// columns themselves, one row per id, which the aggregate emits as they are.
type groupTable struct {
	keys   keyTable
	vals   []*colfile.Vec // per group-key column, the key value of every id
	keyBuf []byte
	ids    []int32
}

// resolve maps every logical row of a batch (physical positions sel, or dense
// [0,n)) to its group id, numbering unseen keys in row order. The returned
// slice is scratch, valid until the next call.
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
			g.keys.insert(nil, hashKey(nil))
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
	for r := range ids {
		p := lane(sel, r)
		g.keyBuf = appendGroupKey(g.keyBuf[:0], vecs, p)
		id, added := g.keys.insert(g.keyBuf, hashKey(g.keyBuf))
		if added {
			for c, v := range vecs {
				g.vals[c].Append(v, p)
			}
		}
		ids[r] = id
	}
	return ids, nil
}
