package radix

import (
	"testing"

	"skewjoin/internal/relation"
)

// TestMultiPassWithDiverter drives Partition through a diverter: diverted
// tuples must be handed to Handle exactly once and never partitioned, the
// rest must satisfy VerifyPlacement, and nothing may be dropped.
func TestMultiPassWithDiverter(t *testing.T) {
	src := randomTuples(15000, 14)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single-pass", Config{Threads: 1, Bits1: 6, Bits2: 0}},
		{"two-pass", Config{Threads: 1, Bits1: 4, Bits2: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handled := make(map[relation.Payload]int)
			div := &Diverter{
				Table:  tableWhere(src, func(tp relation.Tuple) bool { return tp.Key%7 == 0 }),
				Handle: func(w int, tp relation.Tuple, id int32) { handled[tp.Payload]++ },
			}
			diverted := 0
			for _, tp := range src {
				if tp.Key%7 == 0 {
					diverted++
				}
			}
			p := Partition(src, tc.cfg, div)

			if p.Total() != len(src)-diverted {
				t.Fatalf("partitioned %d tuples, want %d", p.Total(), len(src)-diverted)
			}
			if len(handled) != diverted {
				t.Fatalf("handled %d distinct tuples, want %d", len(handled), diverted)
			}
			for pay, n := range handled {
				if n != 1 {
					t.Fatalf("payload %d handled %d times", pay, n)
				}
			}
			if bad := VerifyPlacement(p, tc.cfg); bad >= 0 {
				t.Fatalf("placement violation at %d", bad)
			}
			// Nothing dropped and nothing duplicated: partitioned tuples plus
			// handled tuples reassemble the source multiset.
			seen := make(map[relation.Payload]int, len(src))
			for _, tp := range p.Data {
				seen[tp.Payload]++
			}
			for pay := range handled {
				seen[pay]++
			}
			for _, tp := range src {
				seen[tp.Payload]--
			}
			for pay, n := range seen {
				if n != 0 {
					t.Fatalf("payload %d count off by %d", pay, n)
				}
			}
			// Diverted keys must not appear in any partition.
			for _, tp := range p.Data {
				if tp.Key%7 == 0 {
					t.Fatalf("diverted key %d leaked into partitions", tp.Key)
				}
			}
		})
	}
}

// TestMultiPassDiverterDivertsEverything is the degenerate edge: every
// tuple diverted leaves empty partitions but loses nothing.
func TestMultiPassDiverterDivertsEverything(t *testing.T) {
	src := randomTuples(3000, 15)
	for _, cfg := range []Config{
		{Threads: 1, Bits1: 7, Bits2: 0},
		{Threads: 1, Bits1: 4, Bits2: 3},
	} {
		var handled int
		div := &Diverter{
			Table:  tableWhere(src, func(relation.Tuple) bool { return true }),
			Handle: func(w int, tp relation.Tuple, id int32) { handled++ },
		}
		p := Partition(src, cfg, div)
		if p.Total() != 0 {
			t.Errorf("%+v: partitioned %d tuples, want 0", cfg, p.Total())
		}
		if handled != len(src) {
			t.Errorf("%+v: handled %d tuples, want %d", cfg, handled, len(src))
		}
		if p.Fanout() != 1<<7 {
			t.Errorf("%+v: fanout %d, want %d", cfg, p.Fanout(), 1<<7)
		}
		if bad := VerifyPlacement(p, cfg); bad >= 0 {
			t.Errorf("%+v: placement violation at %d on empty partitions", cfg, bad)
		}
	}
}
