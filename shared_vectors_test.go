package polaris

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
)

// Decoded column chunks are shared: a colfile.Reader memoizes every vector it
// decodes, the compute cache keeps the reader beside the file's bytes, and
// every statement of every session that scans the file receives the same
// vectors. That is only sound if no operator ever writes one. This test runs
// the executor matrix's statements — every scan, filter, projection, join,
// aggregation, sort and limit shape the engine has — around UPDATE, DELETE
// and COMPACT, on both stage runners, spilling and not, and then compares
// every vector the nodes' cached readers hold with a fresh decode of the same
// bytes: values, NULL bitmap and length (an append through a shared slice
// header shows as a length; capacity is not compared). Decoded deletion
// vectors are shared the same way, kept beside their bytes in the same
// cache, so the walk compares every cached vector with a fresh decode too.
// (Each program's broadcast constants, shared by its operator instances
// within a statement, are checked by internal/sql's
// TestSharedConstantsAreNeverWritten, where the plan's programs are in
// reach.)

func sameVec(a, b *colfile.Vec) bool {
	if len(a.Floats) != len(b.Floats) {
		return false
	}
	for i := range a.Floats { // bit for bit: NaN is a value here
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	return a.Type == b.Type && reflect.DeepEqual(a.Ints, b.Ints) && reflect.DeepEqual(a.Strs, b.Strs) &&
		reflect.DeepEqual(a.Bools, b.Bools) && reflect.DeepEqual(a.Nulls, b.Nulls)
}

func TestSharedVectorsAreNeverWritten(t *testing.T) {
	selects := func(db *DB) {
		for _, st := range matrixStmts {
			if _, err := db.Query(st.sql); (err != nil) != (st.wantErr != "") {
				t.Fatalf("%s: %v", st.sql, err)
			}
		}
	}
	for _, p := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			for _, budget := range []int64{0, 256} {
				name := fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", p, dag, budget)
				db := matrixData.open(t, p, dag, budget)
				defer db.Close()
				selects(db) // decodes, and memoizes, every column of every file
				db.MustExec(`UPDATE a SET v = v + 1, f = NULL WHERE id BETWEEN 100 AND 140`)
				db.MustExec(`UPDATE a SET s = 'moved' WHERE k = 3 AND v IS NOT NULL`)
				db.MustExec(`DELETE FROM a WHERE id % 50 = 0`)
				db.MustExec(`DELETE FROM b WHERE bk = 3`)
				selects(db)
				db.MustExec(`COMPACT TABLE a`)
				db.MustExec(`COMPACT TABLE b`)
				selects(db)

				eng := db.Engine()
				shared, chunks, dvs := 0, 0, 0
				for _, node := range eng.Fabric.Nodes() {
					for _, path := range eng.Store.List("tables/") {
						if strings.HasSuffix(path, ".dv") {
							// The node's cached vector when it has one.
							decodes := node.Stats().DVDecodes
							kept, _, _, err := node.OpenDV(eng.Store, path)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if node.Stats().DVDecodes == decodes {
								dvs++
							}
							data, err := eng.Store.Get(path)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							want, err := deletevector.Unmarshal(data)
							if err != nil {
								t.Fatalf("%s: %s: %v", name, path, err)
							}
							if !kept.Equal(want) {
								t.Errorf("%s: node %d: %s: the shared deletion vector no longer matches its bytes\nkept: %v\nwant: %v",
									name, node.ID, path, kept, want)
							}
							continue
						}
						if !strings.HasSuffix(path, ".pcf") {
							continue
						}
						// The node's cached reader when it has one (a fresh
						// one, trivially intact, when it does not).
						r, _, err := node.OpenFile(eng.Store, path)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if r.ChunkDecodes() > 0 {
							shared++
						}
						data, err := eng.Store.Get(path)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						fresh, err := colfile.OpenReader(data)
						if err != nil {
							t.Fatalf("%s: %s: %v", name, path, err)
						}
						for g := 0; g < r.NumRowGroups(); g++ {
							for c := range r.Schema() {
								kept, err := r.ReadColumn(g, c)
								if err != nil {
									t.Fatalf("%s: %s: %v", name, path, err)
								}
								want, err := fresh.ReadColumn(g, c)
								if err != nil {
									t.Fatalf("%s: %s: %v", name, path, err)
								}
								if chunks++; !sameVec(kept, want) {
									t.Errorf("%s: node %d: %s group %d column %q: the shared vector no longer matches its bytes\nkept: %+v\nwant: %+v",
										name, node.ID, path, g, r.Schema()[c].Name, kept, want)
								}
							}
						}
					}
				}
				if shared < 20 {
					t.Fatalf("%s: only %d cached readers had decoded anything (%d chunks compared); the walk is not reaching the shared vectors", name, shared, chunks)
				}
				if dvs == 0 {
					t.Fatalf("%s: no node had a deletion vector cached; the walk is not reaching the shared vectors", name)
				}
			}
		}
	}
}
