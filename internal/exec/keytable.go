package exec

import (
	"bytes"
	"errors"
	"math"
	"slices"

	"polaris/internal/colfile"
)

// keyList is a sequence of row keys, each with its hash, addressed by
// position. A key is either encoded bytes (appendJoinKey of every join key
// column), stored back to back in one arena, or machine words: one word for a
// join key of one Int64 column (wordKey), a fixed number of words for a
// group key (groupTable), stored back to back. One list holds one kind, and
// all its word keys have one width. Offsets are ints and cannot wrap.
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

// wordKey reports whether a join key over these columns is stored as a
// machine word: exactly one Int64 column. It reads the static type alone.
func wordKey(vecs []*colfile.Vec) bool {
	return len(vecs) == 1 && vecs[0].Type == colfile.Int64
}

// keyTable maps row keys to dense ids, numbered from 0 in first-insertion
// order: a keyList of the distinct keys plus an index over it. It is the one
// key index of the engine: HashAgg and MergeAgg resolve group ids through it,
// and a JoinTable partition resolves a probe key to its build rows. The index
// is open addressing with linear probing over id+1 (0 = empty slot). Two
// keys are the same key iff their bytes (insert/find), their word
// (insertWord/findWord) or their words (insertWords) are equal — the hash
// only picks where probing starts, so no result can depend on it (callers
// pass it in; the property test passes a constant). Stored hashes let the
// index grow without rehashing a key. A table holds byte keys, one-word keys
// or keys of one wider width, never two kinds.
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

// insertWords is insert for a key of len(w) words; every key of the table
// has that width. The words are copied; w may be reused.
func (t *keyTable) insertWords(w []int64, h uint64) (id int32, added bool) {
	if 2*(t.len()+1) > len(t.slots) {
		t.grow()
	}
	k := len(w)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && slices.Equal(t.words[int(id)*k:int(id)*k+k], w) {
			return id, false
		}
	}
	id = int32(t.len())
	t.words = append(t.words, w...)
	t.hashes = append(t.hashes, h)
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
// loop: its value as a word (an Int64 as is; a Float64's bits, a zero as
// +0's, equal exactly when appendJoinKey's bytes are; a String's hashKey; a
// Bool as 0 or 1), or nullWord for NULL.
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
					w = 0 // -0 as +0: = finds them equal, so they are one key
					if f := v.Floats[p]; f != 0 {
						w = math.Float64bits(f)
					}
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
// keyTable of machine-word keys plus the group-key columns themselves, one
// row per id, which the aggregate emits as they are.
//
// A row's key is one word per key column — an Int64 as it is, a Float64's
// bits (a zero as +0's, a NaN by its own bit pattern), a Bool as 0 or 1, a
// String as its string id (strCol) — and, over two or more columns, mask
// words with bit c%64 of word c/64 set where column c is NULL, its value word
// then 0. A one-column key has no mask: its NULL is the table's unindexed
// NULL key (insertNull). Two rows' words are equal exactly when their values
// are equal column by column, NULL equal to NULL and -0 to +0, so groups and
// their first-seen order are those of the values.
type groupTable struct {
	keys   keyTable
	vals   []*colfile.Vec // per group-key column, the key value of every id
	strs   []strCol       // per group-key column, its string ids (String columns)
	words  []int64        // a chunk's keys, width words each
	hashes []uint64       // a chunk's key hashes, for keys of two or more columns
	ids    []int32

	// byStr resolves a one-String-column key without keys: the group id + 1
	// of string id s is byStr[s+1], of NULL byStr[0], 0 = not yet seen.
	// Its ids are dense, so a group costs 4 bytes here against some 28 in
	// keys (a word, a hash and two index slots), and a row no hash. nStr
	// counts its groups.
	byStr []int32
	nStr  int32
}

// strCol numbers the values of one String group-key column with dense ids.
// The first dictionary the column arrives coded with (colfile.Vec) is
// its own: its codes are the ids [0, len(dict)), so a row coded with it
// resolves by its code alone. Every other value is numbered on from there as
// it is first seen: an uncoded one per row, and a code of another dictionary
// once, through that dictionary's memo.
type strCol struct {
	dict  []string
	more  []string // the values of ids len(dict) on
	slots []int32  // id + 1 of every value, by hashKey, once any is looked up by string; at most half full
	memos []dictMemo
}

// dictMemo is the string ids of one dictionary's codes: ids[code] is the
// entry's id + 1, 0 until a row first carries the code.
type dictMemo struct {
	dict []string
	ids  []int32
}

// value returns the string of id.
func (sc *strCol) value(id int32) string {
	if int(id) < len(sc.dict) {
		return sc.dict[id]
	}
	return sc.more[int(id)-len(sc.dict)]
}

// id returns the id of string s, numbering it when it is new.
func (sc *strCol) id(s string) int32 {
	n := len(sc.dict) + len(sc.more)
	if 2*(n+1) > len(sc.slots) {
		sc.reindex(n + 1)
	}
	mask := uint64(len(sc.slots) - 1)
	i := hashKey(s) & mask
	for ; sc.slots[i] != 0; i = (i + 1) & mask {
		if id := sc.slots[i] - 1; sc.value(id) == s {
			return id
		}
	}
	if sc.more == nil {
		sc.more = make([]string, 0, 8)
	}
	sc.more = append(sc.more, s)
	sc.slots[i] = int32(n) + 1
	return int32(n)
}

// reindex sizes the index for n values and places every value numbered so
// far.
func (sc *strCol) reindex(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	sc.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := 0; id < len(sc.dict)+len(sc.more); id++ {
		i := hashKey(sc.value(int32(id))) & mask
		for sc.slots[i] != 0 {
			i = (i + 1) & mask
		}
		sc.slots[i] = int32(id) + 1
	}
}

// memo returns the id memo of dictionary dict, or nil when dict is the
// column's own, whose codes are ids. The first dictionary a column meets
// before it numbers any value by string becomes its own.
func (sc *strCol) memo(dict []string) []int32 {
	if sc.dict == nil && sc.slots == nil {
		sc.dict = dict
		if dict == nil {
			sc.dict = []string{}
		}
	}
	if colfile.SameDict(sc.dict, dict) {
		return nil
	}
	for _, m := range sc.memos {
		if colfile.SameDict(m.dict, dict) {
			return m.ids
		}
	}
	sc.memos = append(sc.memos, dictMemo{dict: dict, ids: make([]int32, len(dict))})
	return sc.memos[len(sc.memos)-1].ids
}

// keyWidth is the words of a key over k columns: one per column, plus the
// NULL mask words when there are two or more.
func keyWidth(k int) int {
	if k < 2 {
		return k
	}
	return k + (k+63)/64
}

// groupChunk is how many rows' keys resolve takes at a time, so its word
// scratch stays small and in cache however wide the key.
const groupChunk = 256

// len returns the number of groups.
func (g *groupTable) len() int { return g.keys.len() + int(g.nStr) }

// resolve maps every logical row of a batch (physical positions sel, or dense
// [0,n)) to its group id, numbering unseen keys in row order. The returned
// slice is scratch, valid until the next call.
//
//polaris:kernel lanes are addressed through sel (or dense [0,n)), the translation the caller's batch carries
func (g *groupTable) resolve(vecs []*colfile.Vec, sel []int, n int) ([]int32, error) {
	if err := g.keys.checkRoom(n + int(g.nStr)); err != nil {
		return nil, err
	}
	if cap(g.ids) < n {
		g.ids = make([]int32, n)
	}
	ids := g.ids[:n]
	if len(vecs) == 0 {
		// A global aggregate: one group under the empty key.
		if n > 0 {
			g.keys.insertWords(nil, hashSeed)
		}
		clear(ids)
		return ids, nil
	}
	if g.vals == nil {
		g.vals = make([]*colfile.Vec, len(vecs))
		g.strs = make([]strCol, len(vecs))
		for c, v := range vecs {
			g.vals[c] = colfile.NewVec(v.Type)
		}
	}
	// A chunk's rows are hashed in one loop before any is looked up, so the
	// lookups' loads do not wait on the hashes. One Int64 column is read as
	// it stands and keeps its hashes where its words would be.
	width, k := keyWidth(len(vecs)), len(vecs)
	one := vecs[0]
	int1, str1 := width == 1 && one.Type == colfile.Int64, width == 1 && one.Type == colfile.String
	if m := min(n, groupChunk); cap(g.words) < m*width {
		g.words = make([]int64, m*width)
		if width > 1 {
			g.hashes = make([]uint64, m)
		}
	}
	for lo := 0; lo < n; lo += groupChunk {
		rows := min(groupChunk, n-lo)
		ws := g.words[:rows*width]
		switch {
		case int1:
			for j := range ws {
				ws[j] = int64(fmix64(hashSeed ^ uint64(one.Ints[lane(sel, lo+j)])))
			}
		case width > 1:
			g.keyWords(ws, rows, vecs, sel, lo)
			for j, key := 0, ws; j < rows; j, key = j+1, key[width:] {
				g.hashes[j] = hashWords(key[:width], k)
			}
		default:
			g.keyWords(ws, rows, vecs, sel, lo)
		}
		out := ids[lo : lo+rows]
		for j := range out {
			p := lane(sel, lo+j)
			var id int32
			var added bool
			switch {
			case int1 && one.IsNull(p):
				id, added = g.keys.insertNull()
			case int1:
				id, added = g.keys.insertWord(one.Ints[p], uint64(ws[j]))
			case width > 1:
				id, added = g.keys.insertWords(ws[j*width:(j+1)*width], g.hashes[j])
			case str1:
				id, added = g.strGroup(ws[j], one.IsNull(p))
			case one.IsNull(p):
				id, added = g.keys.insertNull()
			default:
				id, added = g.keys.insertWord(ws[j], fmix64(hashSeed^uint64(ws[j])))
			}
			if out[j] = id; added {
				for c, v := range vecs {
					g.vals[c].Append(v, p) // a coded column's stay coded (see plain)
				}
			}
		}
	}
	return ids, nil
}

// hashWords is the hash of a key of k columns: its value words, then its
// NULL mask words that are not 0.
func hashWords(key []int64, k int) uint64 {
	h := uint64(hashSeed)
	for i, w := range key {
		if i < k || w != 0 {
			h = fmix64(h ^ uint64(w))
		}
	}
	return h
}

// strGroup returns the group id of a one-String-column key with string id
// sid, or of NULL when null, adding it (added = true) when it is new.
func (g *groupTable) strGroup(sid int64, null bool) (id int32, added bool) {
	i := int(sid) + 1
	if null {
		i = 0
	}
	if i >= len(g.byStr) {
		// Grown by at least the dictionary the column is coded with.
		size := max(2*i, len(g.strs[0].dict)+1, 64)
		g.byStr = slices.Grow(g.byStr, size-len(g.byStr))[:size]
	}
	if s := g.byStr[i]; s != 0 {
		return s - 1, false
	}
	id = g.nStr
	g.nStr++
	g.byStr[i] = id + 1
	return id, true
}

// plain returns the group-key columns with every dictionary-coded one
// decoded: the key values of a final aggregate's result. A partial
// aggregate's stay coded for MergeAgg, which resolves them by their codes.
func (g *groupTable) plain() []*colfile.Vec {
	out := make([]*colfile.Vec, len(g.vals))
	for c, v := range g.vals {
		out[c] = v.Plain()
	}
	return out
}

// keyWords sets ws[r*width:(r+1)*width] to the key words of logical row lo+r
// over the key columns vecs — physical lane sel[lo+r], or lo+r when sel is
// nil — for every r in [0, n). Each column fills its word of every row in one
// typed loop, then zeroes and masks its NULLs.
//
//polaris:kernel lanes are addressed through sel (or dense from lo), the translation the caller's batch carries
func (g *groupTable) keyWords(ws []int64, n int, vecs []*colfile.Vec, sel []int, lo int) {
	if sel != nil {
		sel = sel[lo : lo+n]
	}
	k, width := len(vecs), keyWidth(len(vecs))
	for r := 0; width > k && r < n; r++ {
		clear(ws[r*width+k : (r+1)*width])
	}
	for c, v := range vecs {
		col := ws[c:] // row r's word is col[r*width]
		switch v.Type {
		case colfile.Int64:
			for r := 0; r < n; r++ {
				col[r*width] = v.Ints[laneFrom(sel, lo, r)]
			}
		case colfile.Float64:
			for r := 0; r < n; r++ {
				var w int64 // -0 as +0: = finds them equal, so they are one key
				if f := v.Floats[laneFrom(sel, lo, r)]; f != 0 {
					w = int64(math.Float64bits(f))
				}
				col[r*width] = w
			}
		case colfile.Bool:
			for r := 0; r < n; r++ {
				var w int64
				if v.Bools[laneFrom(sel, lo, r)] {
					w = 1
				}
				col[r*width] = w
			}
		case colfile.String:
			g.strWords(col, width, &g.strs[c], v, sel, lo, n)
		}
		if v.Nulls != nil {
			for r := 0; r < n; r++ {
				if v.Nulls[laneFrom(sel, lo, r)] {
					col[r*width] = 0
					if width > 1 {
						ws[r*width+k+c/64] |= 1 << (c % 64)
					}
				}
			}
		}
	}
}

// strWords sets col[r*width] to the string id of String column v's logical
// row lo+r for r in [0, n), leaving NULL rows as they are: a NULL lane's code
// means nothing.
//
//polaris:kernel lanes are addressed through sel (or dense from lo), the translation the caller's batch carries
func (g *groupTable) strWords(col []int64, width int, sc *strCol, v *colfile.Vec, sel []int, lo, n int) {
	if v.Ints == nil {
		for r := 0; r < n; r++ {
			if p := laneFrom(sel, lo, r); !v.IsNull(p) {
				col[r*width] = int64(sc.id(v.Strs[p]))
			}
		}
		return
	}
	// A coded column (colfile.Vec): codes in Ints, its dictionary in Strs.
	codes, dict := v.Ints, v.Strs
	memo := sc.memo(dict)
	if memo == nil {
		for r := 0; r < n; r++ {
			if p := laneFrom(sel, lo, r); !v.IsNull(p) {
				col[r*width] = codes[p]
			}
		}
		return
	}
	for r := 0; r < n; r++ {
		if p := laneFrom(sel, lo, r); !v.IsNull(p) {
			code := codes[p]
			if memo[code] == 0 {
				memo[code] = sc.id(dict[code]) + 1
			}
			col[r*width] = int64(memo[code] - 1)
		}
	}
}
