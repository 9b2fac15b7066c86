package radix

import (
	"testing"

	"skewjoin/internal/relation"
)

// countDiverted returns how many IDs mark their tuple as diverted.
func countDiverted(ids []int32) int {
	n := 0
	for _, id := range ids {
		if id >= 0 {
			n++
		}
	}
	return n
}

// TestMultiPassWithDiverter drives MultiPass through a diverter: diverted
// tuples must be handed to Handle exactly once and never partitioned, the
// rest must satisfy VerifyPlacement, and nothing may be dropped.
func TestMultiPassWithDiverter(t *testing.T) {
	src := randomTuples(15000, 14)
	for _, tc := range []struct {
		name string
		bits []uint32
	}{
		{"single-pass", []uint32{6}},
		{"two-pass", []uint32{4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handled := make(map[relation.Payload]int)
			div := &Diverter{
				IDs:    markWhere(src, func(tp relation.Tuple) bool { return tp.Key%7 == 0 }),
				Handle: func(w int, tp relation.Tuple, id int32) { handled[tp.Payload]++ },
			}
			diverted := countDiverted(div.IDs)
			p := MultiPass(src, 1, tc.bits, div)

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
			// Placement: MultiPass with bits [b] or [b1, b2] matches the
			// two-pass Config partition index layout exactly.
			cfg := Config{Bits1: tc.bits[0]}
			if len(tc.bits) > 1 {
				cfg.Bits2 = tc.bits[1]
			}
			if bad := VerifyPlacement(p, cfg); bad >= 0 {
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
	var handled int
	div := &Diverter{
		IDs:    markWhere(src, func(relation.Tuple) bool { return true }),
		Handle: func(w int, tp relation.Tuple, id int32) { handled++ },
	}
	p := MultiPass(src, 1, []uint32{4, 3}, div)
	if p.Total() != 0 {
		t.Errorf("partitioned %d tuples, want 0", p.Total())
	}
	if handled != len(src) {
		t.Errorf("handled %d tuples, want %d", handled, len(src))
	}
	if p.Fanout() != 1<<7 {
		t.Errorf("fanout %d, want %d", p.Fanout(), 1<<7)
	}
	if bad := VerifyPlacement(p, Config{Bits1: 4, Bits2: 3}); bad >= 0 {
		t.Errorf("placement violation at %d on empty partitions", bad)
	}
}
