package sql

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/exec"
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

// tv is a three-valued truth value ordered FALSE < NULL < TRUE, so SQL's AND
// is the minimum, OR the maximum and NOT the mirror image.
type tv int

const (
	tvFalse tv = iota
	tvNull
	tvTrue
)

func tvAnd(a, b tv) tv {
	if a < b {
		return a
	}
	return b
}

func tvOr(a, b tv) tv {
	if a > b {
		return a
	}
	return b
}

func tvNot(a tv) tv { return tvTrue - a }

// tvCmp is a comparison against a NULL-able column value.
func tvCmp(v *int64, keep func(int64) bool) tv {
	switch {
	case v == nil:
		return tvNull
	case keep(*v):
		return tvTrue
	}
	return tvFalse
}

// TestZoneMapOrPredicates pins what an OR does to scan planning, and that
// three-valued logic does not change it: the pushed program's ranges come
// only from top-level AND conjuncts, so an OR contributes no zone-map bound
// while a conjunct beside it still does, and choosePushdown pushes each
// conjunct — an OR whole — into the scan, leaving no residual WHERE. The rows SELECT COUNT(*),
// UPDATE and DELETE count must equal a Go-side filter under SQL's
// three-valued logic, over x and y values that include NULLs.
func TestZoneMapOrPredicates(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 4
	opts.RowsPerGroup = 2
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	eng := core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
	s := NewSession(eng)

	type row struct{ x, y *int64 }
	var rows []row
	var ins strings.Builder
	ins.WriteString("INSERT INTO z VALUES ")
	for id := int64(0); id < 40; id++ {
		x, y := id%13-3, id%7
		r := row{&x, &y}
		xs, ys := strconv.FormatInt(x, 10), strconv.FormatInt(y, 10)
		if id%5 == 0 {
			r.x, xs = nil, "NULL"
		}
		if id%6 == 1 {
			r.y, ys = nil, "NULL"
		}
		rows = append(rows, r)
		if id > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %s, %s)", id, xs, ys)
	}
	mustExec(t, s, `CREATE TABLE z (id INT, x INT, y INT) WITH (DISTRIBUTION = id, SORTCOL = x)`)
	mustExec(t, s, ins.String())

	for _, c := range []struct {
		where  string
		ranges []exec.Range // over the scan's projection (x, y)
		keep   func(r row) tv
	}{
		{`x >= 5 OR y <= 1`, nil, func(r row) tv {
			return tvOr(tvCmp(r.x, func(x int64) bool { return x >= 5 }), tvCmp(r.y, func(y int64) bool { return y <= 1 }))
		}},
		{`(x >= 5 OR y <= 1) AND x <= 7`, []exec.Range{{Col: 0, Lo: math.MinInt64, Hi: 7}}, func(r row) tv {
			return tvAnd(tvOr(tvCmp(r.x, func(x int64) bool { return x >= 5 }), tvCmp(r.y, func(y int64) bool { return y <= 1 })),
				tvCmp(r.x, func(x int64) bool { return x <= 7 }))
		}},
		{`x = 2 OR x IS NULL`, nil, func(r row) tv {
			isNull := tvFalse
			if r.x == nil {
				isNull = tvTrue
			}
			return tvOr(tvCmp(r.x, func(x int64) bool { return x == 2 }), isNull)
		}},
		{`NOT (x < 0 AND y > 3)`, nil, func(r row) tv {
			return tvNot(tvAnd(tvCmp(r.x, func(x int64) bool { return x < 0 }), tvCmp(r.y, func(y int64) bool { return y > 3 })))
		}},
		{`x BETWEEN 0 AND 6 AND (y = 2 OR x > 4)`, []exec.Range{{Col: 0, Lo: 0, Hi: 6}}, func(r row) tv {
			return tvAnd(tvCmp(r.x, func(x int64) bool { return 0 <= x && x <= 6 }),
				tvOr(tvCmp(r.y, func(y int64) bool { return y == 2 }), tvCmp(r.x, func(x int64) bool { return x > 4 })))
		}},
	} {
		st, err := Parse("SELECT COUNT(*) FROM z WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.Begin()
		p, err := planSelect(tx, st.(*SelectStmt))
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		if p.base.pred == nil || !reflect.DeepEqual(p.base.pred.Ranges(), c.ranges) {
			t.Errorf("WHERE %s: pushed program %v, want zone-map ranges %+v", c.where, p.base.pred, c.ranges)
		}
		if p.where != nil || p.base.pushed == nil {
			t.Errorf("WHERE %s: residual %v, pushed %v; want every conjunct in the scan", c.where, p.where, p.base.pushed)
		}

		var want int64
		for _, r := range rows {
			if c.keep(r) == tvTrue {
				want++
			}
		}
		if got := mustExec(t, s, "SELECT COUNT(*) FROM z WHERE "+c.where).Batch.Cols[0].Ints[0]; got != want {
			t.Errorf("SELECT COUNT(*) WHERE %s = %d, want %d", c.where, got, want)
		}
		if got := mustExec(t, s, "UPDATE z SET id = id WHERE "+c.where).RowsAffected; got != want {
			t.Errorf("UPDATE WHERE %s affected %d, want %d", c.where, got, want)
		}
		mustExec(t, s, "BEGIN")
		got := mustExec(t, s, "DELETE FROM z WHERE "+c.where).RowsAffected
		mustExec(t, s, "ROLLBACK")
		if got != want {
			t.Errorf("DELETE WHERE %s affected %d, want %d", c.where, got, want)
		}
	}
}

// prunedSession is a session over one distribution with ten-row groups, so
// every table in it is one file whose row groups are easy to count by hand.
func prunedSession(t *testing.T, parallelism int, dag bool) *Session {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Distributions = 1
	opts.RowsPerFile = 1000
	opts.RowsPerGroup = 10
	opts.Parallelism = parallelism
	opts.DistributedQueries = dag
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	return NewSession(core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts))
}

// TestJoinScansPruneBothSides: under a join, each scan prunes on its own
// pushed range, the probe base's and the build's alike. a holds k = 0..99
// in ten row groups and b id = 0..49 in five; the WHERE admits a's groups 2
// and 3 and b's group 1, so a cold run decodes two chunks (k, v) in each of
// a's two groups and two (id, w) in b's one, and nothing else — at
// Parallelism 1 and 4, on the pool and the DAG, with the same result bytes.
func TestJoinScansPruneBothSides(t *testing.T) {
	const q = `SELECT a.k, b.w FROM a JOIN b ON a.v = b.id WHERE a.k >= 20 AND a.k <= 39 AND b.id BETWEEN 10 AND 19 ORDER BY a.k`
	var want []byte
	for _, par := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			s := prunedSession(t, par, dag)
			mustExec(t, s, `CREATE TABLE a (k INT, v INT) WITH (DISTRIBUTION = k, SORTCOL = k)`)
			mustExec(t, s, `CREATE TABLE b (id INT, w INT) WITH (DISTRIBUTION = id, SORTCOL = id)`)
			var av, bv []string
			for k := 0; k < 100; k++ {
				av = append(av, fmt.Sprintf("(%d, %d)", k, k-10))
			}
			for id := 0; id < 50; id++ {
				bv = append(bv, fmt.Sprintf("(%d, %d)", id, 7*id))
			}
			mustExec(t, s, "INSERT INTO a VALUES "+strings.Join(av, ", "))
			mustExec(t, s, "INSERT INTO b VALUES "+strings.Join(bv, ", "))
			before := chunkDecodes(s)
			text, got := renderResult(t, s, q)
			if n := chunkDecodes(s) - before; n != 2*2+1*2 {
				t.Errorf("Parallelism %d, dag %v: decoded %d chunks, want 6", par, dag, n)
			}
			if want == nil {
				if n := strings.Count(text, "\n"); n != 10 {
					t.Fatalf("joined %d rows, want 10:\n%s", n, text)
				}
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("Parallelism %d, dag %v: result bytes differ:\n%s", par, dag, text)
			}
		}
	}
}
