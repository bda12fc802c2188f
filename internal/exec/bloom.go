package exec

import "sync/atomic"

// Bloom is a join runtime filter: a bloom filter over the build-side join
// keys' hashes (hashKeys), consulted on the probe side before the hash-table
// walk (and, on the spilled path, before probe rows are even partitioned to
// the object store). A Bloom has no false negatives, so dropping rows it rejects cannot
// change join results — the cross-DOP byte-identity contract
// (docs/ARCHITECTURE.md) is preserved by construction. Its contents are a
// pure set-OR of per-key bit patterns, independent of insertion order, so
// parallel and serial builds produce the same filter.
//
// Add is NOT safe for concurrent use; MayContain on a sealed filter is.
type Bloom struct {
	bits []uint64
	mask uint64 // bit-count - 1; bit count is a power of two
	k    int    // probes per key
}

// bloomProbes is the number of bits set/tested per key. With ~10 bits per
// key, k=4 gives a false-positive rate around 1-2% — runtime filters only
// need to be roughly right, misses cost one hash-map lookup.
const bloomProbes = 4

// bloomMinBits and bloomMaxBits bound filter size: 1 KiB floor so tiny
// builds still filter well, 128 KiB ceiling so a huge build-side key set
// degrades to a denser (less selective) filter instead of unbounded memory.
const (
	bloomMinBits = 8 << 10
	bloomMaxBits = 1 << 20
)

// spillBloomKeyHint sizes the runtime filter a grace join accumulates while
// spilling its build side, where the true key count is unknown until the
// stream is drained. A fixed hint (128 Ki bits after the ×10 sizing rule,
// 16 KiB) keeps the filter deterministic for a fixed build regardless of how
// the drain was batched.
const spillBloomKeyHint = 1 << 13

// NewBloom sizes a filter for approximately n keys (~10 bits per key,
// rounded up to a power of two within [bloomMinBits, bloomMaxBits]). The
// size is a pure function of n, which keeps filters deterministic for a
// fixed build side.
func NewBloom(n int) *Bloom {
	bits := uint64(bloomMinBits)
	for bits < uint64(n)*10 && bits < bloomMaxBits {
		bits <<= 1
	}
	return &Bloom{bits: make([]uint64, bits/64), mask: bits - 1, k: bloomProbes}
}

// bloomSeed selects the remix of a key hash the filter's probe positions
// come from, so they are independent of the bits that place the key in its
// table and partition.
const bloomSeed = 1

// probes returns the double-hashing start and stride of a key hash.
func probes(h uint64) (h1, h2 uint64) {
	h1 = remix(h, bloomSeed)
	return h1, (h1 >> 33) | 1 // h2 odd => full-period probe sequence
}

// Add inserts a key by its hash.
func (f *Bloom) Add(h uint64) {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		bit := h1 & f.mask
		f.bits[bit/64] |= 1 << (bit % 64)
		h1 += h2
	}
}

// MayContain reports whether a key with hash h may have been added. False
// means definitely absent.
func (f *Bloom) MayContain(h uint64) bool {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		bit := h1 & f.mask
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// BloomFilter derives the runtime filter from a completed build: one Add per
// distinct build key, from the hash its table stored.
func (jt *JoinTable) BloomFilter() *Bloom {
	n := 0
	for i := range jt.parts {
		n += jt.parts[i].keys.len()
	}
	f := NewBloom(n)
	for i := range jt.parts {
		for _, h := range jt.parts[i].keys.hashes {
			f.Add(h)
		}
	}
	return f
}

// countPruned adds n to a shared pruned-row counter if one is attached.
func countPruned(ctr *atomic.Int64, n int64) {
	if ctr != nil && n > 0 {
		ctr.Add(n)
	}
}
