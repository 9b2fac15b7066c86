package bench

import (
	"strings"
	"testing"
)

func TestSSkewRunsAndVerifies(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 3000
	a := verified(t, SSkew, cfg)
	if len(a.sweep.Rows) != 4 {
		t.Fatalf("series = %d", len(a.sweep.Rows))
	}
	if len(a.Cells) != 4*len(cfg.Zipfs) {
		t.Errorf("%d cells, want %d", len(a.Cells), 4*len(cfg.Zipfs))
	}
	var sb strings.Builder
	a.Fprint(&sb)
	for _, want := range []string{"S-side", "GSH"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSpeedupFprint(t *testing.T) {
	cfg := tiny()
	cfg.Zipfs = []float64{0.5, 1.0}
	a, err := Speedup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	a.Fprint(&sb)
	for _, want := range []string{"CSH vs Cbase", "GSH vs Gbase", "max CSH speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestLargeFprint(t *testing.T) {
	cfg := tiny()
	cfg.Tuples = 1000
	a, err := Large(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	a.Fprint(&sb)
	if !strings.Contains(sb.String(), "Scale-up experiment") {
		t.Error("output missing title")
	}
}
