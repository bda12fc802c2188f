package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
)

// TestZoneMapRangeCoversInt64 pins the zone-map hint's open bounds to the
// whole int64 range: a row group whose values all lie past ±2^62 must not be
// pruned by a one-sided WHERE. SELECT COUNT(*), DELETE and UPDATE share the
// hint, so each must count what a Go-side filter over the inserted rows
// counts, for random conjunctions over random values that include the int64
// extremes and the neighbours of ±2^62.
func TestZoneMapRangeCoversInt64(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 4
	opts.RowsPerGroup = 2
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	s := NewSession(core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts))
	rng := rand.New(rand.NewSource(29))

	edges := []int64{
		math.MinInt64, math.MinInt64 + 1, -(1 << 62) - 1, -(1 << 62), -(1 << 62) + 1,
		-1, 0, 1, 5, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxInt64 - 1, math.MaxInt64,
	}
	pick := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return int64(rng.Uint64())
		default:
			return int64(rng.Intn(21) - 10)
		}
	}
	// lit renders v as SQL; MinInt64 has no literal of its own.
	lit := func(v int64) string {
		if v == math.MinInt64 {
			return "(-9223372036854775807 - 1)"
		}
		return strconv.FormatInt(v, 10)
	}

	var xs []int64
	xs = append(xs, edges...)
	for len(xs) < 48 {
		xs = append(xs, pick())
	}
	mustExec(t, s, `CREATE TABLE z (id INT, x INT) WITH (DISTRIBUTION = id, SORTCOL = x)`)
	var ins strings.Builder
	ins.WriteString("INSERT INTO z VALUES ")
	for i, x := range xs {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %s)", i, lit(x))
	}
	mustExec(t, s, ins.String())

	type term struct {
		sql  string
		keep func(int64) bool
	}
	randomTerm := func() term {
		a, b := pick(), pick()
		switch rng.Intn(6) {
		case 0:
			return term{"x >= " + lit(a), func(x int64) bool { return x >= a }}
		case 1:
			return term{"x <= " + lit(a), func(x int64) bool { return x <= a }}
		case 2:
			return term{"x > " + lit(a), func(x int64) bool { return x > a }}
		case 3:
			return term{"x < " + lit(a), func(x int64) bool { return x < a }}
		case 4:
			return term{"x = " + lit(a), func(x int64) bool { return x == a }}
		default:
			return term{"x BETWEEN " + lit(a) + " AND " + lit(b), func(x int64) bool { return a <= x && x <= b }}
		}
	}

	for trial := 0; trial < 40; trial++ {
		terms := make([]term, 1+rng.Intn(3))
		conj := make([]string, len(terms))
		for i := range terms {
			terms[i] = randomTerm()
			conj[i] = terms[i].sql
		}
		where := strings.Join(conj, " AND ")
		var want int64
		for _, x := range xs {
			keep := true
			for _, tm := range terms {
				keep = keep && tm.keep(x)
			}
			if keep {
				want++
			}
		}

		if got := mustExec(t, s, "SELECT COUNT(*) FROM z WHERE "+where).Batch.Cols[0].Ints[0]; got != want {
			t.Fatalf("SELECT COUNT(*) WHERE %s = %d, want %d", where, got, want)
		}
		if got := mustExec(t, s, "UPDATE z SET id = id WHERE "+where).RowsAffected; got != want {
			t.Fatalf("UPDATE WHERE %s affected %d, want %d", where, got, want)
		}
		mustExec(t, s, "BEGIN")
		got := mustExec(t, s, "DELETE FROM z WHERE "+where).RowsAffected
		mustExec(t, s, "ROLLBACK")
		if got != want {
			t.Fatalf("DELETE WHERE %s affected %d, want %d", where, got, want)
		}
	}
}
