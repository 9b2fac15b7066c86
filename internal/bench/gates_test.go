package bench

import (
	"strings"
	"testing"
	"time"
)

// cell builds a synthetic measured cell; no join runs in these tests.
func cell(zipf float64, arm string, best time.Duration, metrics map[string]any) Cell {
	return Cell{Zipf: zipf, Arm: arm, BestNS: int64(best), RunsNS: []int64{int64(best)}, Metrics: metrics}
}

// gateCase is one synthetic group and the violations its gate must
// report, each matched by a substring.
type gateCase struct {
	name  string
	group []Cell
	want  []string
}

func checkGate(t *testing.T, gate func([]Cell) []string, cases []gateCase) {
	t.Helper()
	for _, tc := range cases {
		got := gate(tc.group)
		if len(got) != len(tc.want) {
			t.Errorf("%s: violations %q, want %d matching %q", tc.name, got, len(tc.want), tc.want)
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: violation %q does not mention %q", tc.name, got[i], w)
			}
		}
	}
}

func TestStreamGate(t *testing.T) {
	const ms = time.Millisecond
	limited := func(zipf, frac float64, ssj, cbase time.Duration) []Cell {
		m := map[string]any{"limit": 100, "fraction": frac}
		return []Cell{cell(zipf, "ssj", ssj, m), cell(zipf, "cbase", cbase, m), cell(zipf, "ssj-aa", ssj, m)}
	}
	full := func(zipf float64, ssj, cbase time.Duration) []Cell {
		m := map[string]any{"limit": 0}
		return []Cell{cell(zipf, "ssj", ssj, m), cell(zipf, "cbase", cbase, m)}
	}
	checkGate(t, streamGate, []gateCase{
		{"4x ahead", limited(0, 0.001, 2*ms, 8*ms), nil},
		{"3x ahead", limited(0, 0.001, 2*ms, 6*ms), []string{"is not 4x ahead"}},
		{"at the 1% bound", limited(0.9, 0.01, 2*ms, 6*ms), []string{"is not 4x ahead"}},
		{"over 1% of output", limited(0.9, 0.011, 2*ms, 3*ms), nil},
		{"control under 2ms", limited(0, 0.001, 1*ms, 1999*time.Microsecond), nil},
		{"parity within 1.10x+2ms", full(0.9, 13*ms, 10*ms), nil},
		{"parity exceeded", full(1.1, 13100*time.Microsecond, 10*ms), []string{"exceeds 110% of blocking"}},
		{"parity not gated below zipf 0.5", full(0.4, 30*ms, 10*ms), nil},
		{"parity at zipf 0.5", full(0.5, 30*ms, 10*ms), []string{"full scan @ zipf 0.50"}},
		{"parity control under 2ms", full(1.1, 10*ms, 1900*time.Microsecond), nil},
	})
}

func TestCoprocGate(t *testing.T) {
	const ms = time.Millisecond
	group := func(zipf float64, model time.Duration, fragmented bool) []Cell {
		m := map[string]any{"fragmented": fragmented}
		return []Cell{
			cell(zipf, "model", model, m), cell(zipf, "static", 50*ms, nil),
			cell(zipf, "cpu", 100*ms, nil), cell(zipf, "gpu", 200*ms, nil),
			// The A/A twin is not a control, however fast it measured.
			cell(zipf, "cpu-aa", 1*ms, nil),
		}
	}
	checkGate(t, coprocGate, []gateCase{
		{"within 1.05x+5ms", group(1.0, 110*ms, false), nil},
		{"over 1.05x+5ms", group(1.0, 111*ms, false), []string{"exceeds 5%+eps of better control"}},
		{"deep skew fragments and wins", group(1.2, 90*ms, true), nil},
		{"deep skew whole", group(1.2, 90*ms, false), []string{"did not fragment"}},
		{"deep skew ties", group(1.4, 100*ms, true), []string{"does not beat better control"}},
		{"below the fragment gate", group(1.1, 100*ms, false), nil},
	})
}

func TestShardGate(t *testing.T) {
	const ms = time.Millisecond
	group := func(zipf float64, hash, frag, hash2 time.Duration, hot int) []Cell {
		return []Cell{cell(zipf, "hash", hash, map[string]any{"hot_keys": 0}),
			cell(zipf, "frag", frag, map[string]any{"hot_keys": hot}),
			cell(zipf, "hash2", hash2, map[string]any{"hot_keys": 0})}
	}
	anchor := func(g []Cell) []string { return shardGate(g, true) }
	other := func(g []Cell) []string { return shardGate(g, false) }
	// At the anchor frag must beat both hash runs: the 1.15x allowance
	// does not apply there.
	checkGate(t, anchor, []gateCase{
		{"beats both", group(1.1, 100*ms, 85*ms, 90*ms, 1), nil},
		{"beats one", group(1.1, 100*ms, 95*ms, 90*ms, 1), []string{"does not beat the better hash run"}},
	})
	checkGate(t, other, []gateCase{
		{"within 1.15x of the worse", group(0.75, 90*ms, 114*ms, 100*ms, 0), nil},
		{"over 1.15x", group(0.75, 90*ms, 116*ms, 100*ms, 0), []string{"exceeds 115% of the worse hash run"}},
		{"no hot key at the knee", group(1.0, 100*ms, 90*ms, 100*ms, 0), []string{"no hot keys at full skew"}},
		{"hot keys below the knee", group(0.75, 100*ms, 90*ms, 100*ms, 2), []string{"2 hot keys below the skew knee"}},
	})
}
