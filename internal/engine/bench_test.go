package engine

import (
	"fmt"
	"math"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// BenchmarkEvalRuleJoin measures one rule evaluation against a route table
// of growing size (the per-event hot path of the runtime).
func BenchmarkEvalRuleJoin(b *testing.B) {
	prog := apps.Forwarding()
	r1 := prog.Rule("r1")
	for _, routes := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("routes=%d", routes), func(b *testing.B) {
			db := NewDatabase()
			for i := 0; i < routes; i++ {
				db.Insert(types.NewTuple("route",
					types.String("n1"), types.String(fmt.Sprintf("d%d", i)), types.String("n2")))
			}
			ev := pktT("n1", "n1", "d0", "payload")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				firings, err := EvalRule(r1, db, ev, nil)
				if err != nil || len(firings) != 1 {
					b.Fatalf("firings = %d, err = %v", len(firings), err)
				}
			}
		})
	}
}

// BenchmarkEvalRuleConstraint measures the constraint-only rule r2.
func BenchmarkEvalRuleConstraint(b *testing.B) {
	prog := apps.Forwarding()
	r2 := prog.Rule("r2")
	db := NewDatabase()
	ev := pktT("n3", "n1", "n3", "payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalRule(r2, db, ev, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinHighFanin is the headline A/B of the indexed join pipeline:
// a two-way join over 512-row relations with fan-in (each event key matches
// 16 a-rows, each of which matches 2 b-rows — 32 firings per event),
// evaluated through the compiled plan (index probes) versus the scan-based
// reference. Both run the same slot-compiled evaluator, so they allocate
// alike (only firings allocate) and differ in the candidates they match:
// ~7x in ns/op on the reference box, of which TestJoinBenchSpeedup
// enforces ≥3x.
func BenchmarkJoinHighFanin(b *testing.B) {
	r, db, ev := joinHighFaninFixture()
	b.Run("indexed", func(b *testing.B) {
		plan := CompileRule(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			firings, err := plan.Eval(db, ev, nil)
			if err != nil || len(firings) != 32 {
				b.Fatalf("firings = %d, err = %v", len(firings), err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			firings, err := EvalRuleScan(r, db, ev, nil)
			if err != nil || len(firings) != 32 {
				b.Fatalf("firings = %d, err = %v", len(firings), err)
			}
		}
	})
}

// joinHighFaninFixture builds the shared workload of BenchmarkJoinHighFanin
// and the provsim join microbenchmark: event key X=0 joins 16 of 512 a-rows
// and each Y joins 2 b-rows (32 firings). The scan path matches all 512
// a-rows and, for each of the 16 that join, all 1024 b-rows — the wasted
// work per event that bucket probes eliminate.
func joinHighFaninFixture() (*ndlog.Rule, *Database, types.Tuple) {
	prog := ndlog.MustParse(`r out(@L, X, Y, Z) :- e(@L, X), a(@L, Y, X), b(@L, Z, Y).`)
	db := NewDatabase()
	loc := types.String("n")
	for i := 0; i < 512; i++ {
		// 32 distinct X values, 16 rows each; Y unique per row.
		db.Insert(types.NewTuple("a", loc, types.Int(int64(i)), types.Int(int64(i%32))))
		// Two b-rows per Y.
		db.Insert(types.NewTuple("b", loc, types.Int(int64(i)), types.Int(int64(i))))
		db.Insert(types.NewTuple("b", loc, types.Int(int64(i+1000)), types.Int(int64(i))))
	}
	return prog.Rule("r"), db, types.NewTuple("e", loc, types.Int(0))
}

// TestJoinBenchSpeedup pins the benchmark contract in the unit suite: on
// the high-fanin workload the scan path matches ~350x the candidates the
// indexed path does (both then pay the same 32 firings, which is what
// narrows the measured gap to ~7x), so the fastest of several scan rounds
// must take at least 3x the fastest indexed round.
func TestJoinBenchSpeedup(t *testing.T) {
	r, db, ev := joinHighFaninFixture()
	plan := CompileRule(r)
	fastest := func(eval func() ([]Firing, error)) time.Duration {
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < 10; i++ {
				if fs, err := eval(); err != nil || len(fs) != 32 {
					t.Fatalf("firings = %d, err = %v", len(fs), err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	indexed := fastest(func() ([]Firing, error) { return plan.Eval(db, ev, nil) })
	scan := fastest(func() ([]Firing, error) { return EvalRuleScan(r, db, ev, nil) })
	if scan < 3*indexed {
		t.Errorf("10 events: indexed = %v, scan = %v — want ≥3x speedup", indexed, scan)
	}
}

// BenchmarkDatabaseInsert measures tuple insertion with hashing and
// dedup indexing.
func BenchmarkDatabaseInsert(b *testing.B) {
	db := NewDatabase()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Insert(pktT("n1", "n1", "n3", fmt.Sprintf("p%d", i)))
	}
}
