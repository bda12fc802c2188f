package colfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// durableFixture is a fixed multi-type, multi-row-group input for the durable
// codec: a plain-varint int column, a long-run int column (RLE), floats, a
// low-cardinality string column (dictionary), a high-cardinality one (plain)
// and bools, with NULLs sprinkled over three of them. Values come from a
// private LCG so the bytes depend on nothing but this file.
func durableFixture() (Schema, []*Batch) {
	schema := Schema{
		{Name: "id", Type: Int64}, {Name: "grp", Type: Int64},
		{Name: "price", Type: Float64}, {Name: "tag", Type: String},
		{Name: "note", Type: String}, {Name: "flag", Type: Bool},
	}
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	var groups []*Batch
	row := 0
	for _, n := range []int{64, 37} {
		b := NewBatch(schema)
		for i := 0; i < n; i, row = i+1, row+1 {
			b.Cols[0].AppendInt(int64(row)*7 - 1000)
			b.Cols[1].AppendInt(int64(row / 50))
			if row%11 == 3 {
				b.Cols[2].AppendNull()
			} else {
				b.Cols[2].AppendFloat(float64(next()%100000) / 100)
			}
			b.Cols[3].AppendStr(fmt.Sprintf("tag-%d", next()%5))
			if row%13 == 5 {
				b.Cols[4].AppendNull()
			} else {
				b.Cols[4].AppendStr(fmt.Sprintf("note %d/%x", row, next()))
			}
			if row%17 == 7 {
				b.Cols[5].AppendNull()
			} else {
				b.Cols[5].AppendBool(next()%2 == 0)
			}
		}
		groups = append(groups, b)
	}
	return schema, groups
}

func writeDurable(schema Schema, groups []*Batch) ([]byte, error) {
	w := NewWriter(schema)
	w.SetSortedBy("id")
	for _, b := range groups {
		if err := w.WriteBatch(b); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}

// durableGolden is the SHA-256 of writeDurable(durableFixture()) recorded on
// the commit before deflate state was pooled (34b2215, go1.24.0). Pooling
// must not move a durable byte: Reset restores a flate.Writer's initial
// state, so the space ratios the benchmark reports stay where they were.
const durableGolden = "d9e1cc778a6d5f0f05d3f7a27fd8a762d22341d682f142b99f41e295bcda1d6f"

func TestDurableBytesGolden(t *testing.T) {
	schema, groups := durableFixture()
	seen := map[byte]bool{}
	for _, b := range groups {
		for _, v := range b.Cols {
			seen[chooseEncoding(v)] = true
		}
	}
	if !seen[encPlain] || !seen[encDict] || !seen[encRLE] {
		t.Fatalf("fixture must exercise plain, dict and RLE chunks, got %v", seen)
	}
	// Twice: the second file is written through deflate state the first one
	// returned to the pool.
	for pass := 0; pass < 2; pass++ {
		data, err := writeDurable(schema, groups)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != durableGolden {
			t.Fatalf("pass %d: durable file bytes moved: sha256 %s, want %s (%d bytes)", pass, got, durableGolden, len(data))
		}
	}
}

// TestDurableCodecConcurrent shares the pooled deflate state between eight
// goroutines (it runs under `make race`): every encode must produce the
// serial file and every decode the serial rows.
func TestDurableCodecConcurrent(t *testing.T) {
	schema, groups := durableFixture()
	wantFile, err := writeDurable(schema, groups)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(file []byte) ([]byte, error) {
		r, err := OpenReader(file)
		if err != nil {
			return nil, err
		}
		all, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		return MarshalBatch(all)
	}
	wantRows, err := decode(wantFile)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				file, err := writeDurable(schema, groups)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(file, wantFile) {
					t.Errorf("iteration %d: concurrent encode differs from the serial file", it)
					return
				}
				rows, err := decode(file)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(rows, wantRows) {
					t.Errorf("iteration %d: concurrent decode differs from the serial rows", it)
					return
				}
			}
		}()
	}
	wg.Wait()
}
