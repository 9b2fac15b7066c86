package bench

import (
	"strings"
	"testing"
	"time"
)

// tiny returns a configuration small enough for unit testing the harness.
func tiny() Config {
	return Config{
		Tuples:  4000,
		Threads: 2,
		Seed:    7,
		Zipfs:   []float64{0, 0.5, 1.0},
	}
}

// verified runs an experiment and fails the test on a run error or a
// verification error.
func verified(t *testing.T, exp func(Config) (*Artifact, error), cfg Config) *Artifact {
	t.Helper()
	a, err := exp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Errors) > 0 {
		t.Fatalf("verification errors: %v", a.Errors)
	}
	return a
}

// rowNames returns a figure's row names in order.
func rowNames(a *Artifact) []string {
	var names []string
	for _, r := range a.sweep.Rows {
		names = append(names, r.Name)
	}
	return names
}

func TestFig1RunsAndVerifies(t *testing.T) {
	a := verified(t, Fig1, tiny())
	if len(a.sweep.Rows) != 4 {
		t.Fatalf("series = %d", len(a.sweep.Rows))
	}
	for _, r := range a.sweep.Rows {
		ds, _ := a.row(r)
		if len(ds) != 3 {
			t.Errorf("series %s has %d cells", r.Name, len(ds))
		}
		for i, d := range ds {
			if d <= 0 {
				t.Errorf("series %s cell %d = %v", r.Name, i, d)
			}
		}
	}
}

func TestFig4aRunsAndVerifies(t *testing.T) {
	a := verified(t, Fig4a, tiny())
	if got, want := strings.Join(rowNames(a), ","), "Cbase,cbase-npj,CSH"; got != want {
		t.Errorf("series = %s, want %s", got, want)
	}
}

func TestFig4bRunsAndVerifies(t *testing.T) {
	a := verified(t, Fig4b, tiny())
	for _, c := range a.Cells {
		if !c.Modelled {
			t.Errorf("GPU cell not marked modelled in %s", c.Arm)
		}
	}
}

func TestTable1HasPaperRows(t *testing.T) {
	a := verified(t, Table1, tiny())
	want := []string{
		"Cbase partition", "Cbase join",
		"CSH sample+part", "CSH NM-join",
		"Gbase partition", "Gbase join",
		"GSH partition", "GSH all other",
	}
	if got := rowNames(a); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("rows = %q, want %q", got, want)
	}
}

func TestSpeedupRuns(t *testing.T) {
	cfg := tiny()
	cfg.Zipfs = []float64{0.5, 1.0}
	a := verified(t, Speedup, cfg)
	csh, gsh := a.speedups("cbase", "csh"), a.speedups("gbase", "gsh")
	if len(csh) != 2 || len(gsh) != 2 {
		t.Fatalf("speedups = %v / %v", csh, gsh)
	}
	for _, v := range append(csh, gsh...) {
		if v <= 0 {
			t.Errorf("non-positive speedup %g", v)
		}
	}
	// The CPU joins keep the best of three runs; the modelled GPU joins
	// are deterministic and run once.
	for _, c := range a.Cells {
		if want := map[bool]int{false: 3, true: 1}[c.Modelled]; len(c.RunsNS) != want {
			t.Errorf("%s @ %.1f: %d runs, want %d", c.Arm, c.Zipf, len(c.RunsNS), want)
		}
	}
}

func TestLargeRuns(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 2000 // Large() multiplies by 8
	a := verified(t, Large, cfg)
	if a.Config["tuples"] != 16000 {
		t.Errorf("tuples = %v", a.Config["tuples"])
	}
}

func TestReportFprint(t *testing.T) {
	a := verified(t, Fig4b, tiny())
	var sb strings.Builder
	a.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 4b", "Gbase", "GSH", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") {
		t.Error("modelled marker '*' missing")
	}
}

func TestMemoryRunsAndVerifies(t *testing.T) {
	a := verified(t, Memory, tiny())
	if len(a.sweep.Arms) != 6 {
		t.Fatalf("series = %d", len(a.sweep.Arms))
	}
	for _, c := range a.Cells {
		if c.num("alloc_bytes") == 0 {
			t.Errorf("%s @ %.1f recorded zero allocations", c.Arm, c.Zipf)
		}
	}
	var sb strings.Builder
	a.Fprint(&sb)
	if !strings.Contains(sb.String(), "heap allocations") {
		t.Error("output missing title")
	}
}

func TestSortVsHashRunsAndVerifies(t *testing.T) {
	a := verified(t, SortVsHash, tiny())
	if len(a.sweep.Rows) != 6 {
		t.Fatalf("series = %d", len(a.sweep.Rows))
	}
}

func TestAnalysisTracksSkew(t *testing.T) {
	a := verified(t, Analysis, tiny())
	if len(a.Cells) != 3 {
		t.Fatalf("rows = %d", len(a.Cells))
	}
	low, high := a.Cells[0], a.Cells[2] // zipf 0 and 1.0
	for _, m := range []string{"top_key_freq", "max_chain", "max_task_share"} {
		if high.num(m) <= low.num(m) {
			t.Errorf("%s should grow with skew: %g vs %g", m, low.num(m), high.num(m))
		}
	}
	var sb strings.Builder
	a.Fprint(&sb)
	if !strings.Contains(sb.String(), "max-chain") {
		t.Error("Fprint output missing header")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[string]string{
		"1.5s":   "1.50s",
		"2ms":    "2.00ms",
		"3.5us":  "3.5us",
		"800ns":  "800ns",
		"1234ms": "1.23s",
	}
	for in, want := range cases {
		d, err := time.ParseDuration(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%s) = %q, want %q", in, got, want)
		}
	}
}
