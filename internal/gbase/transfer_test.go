package gbase

import (
	"testing"

	"skewjoin/internal/oracle"
)

func TestIncludeTransferAddsPhase(t *testing.T) {
	r, s := workload(t, 50000, 0.2, 31)
	plain := Join(r, s, Config{})
	withT := Join(r, s, Config{IncludeTransfer: true})
	if withT.Summary != plain.Summary || withT.Summary != oracle.Expected(r, s) {
		t.Fatal("transfer modelling changed the join result")
	}
	if plain.Phases[0].Name == "transfer" {
		t.Error("transfer phase present without IncludeTransfer")
	}
	if withT.Phases[0].Name != "transfer" || withT.Phases[0].Duration <= 0 {
		t.Fatalf("transfer phase missing: %+v", withT.Phases)
	}
	if withT.Phases.Total() <= plain.Phases.Total() {
		t.Errorf("transfer should add time: %v vs %v", withT.Phases.Total(), plain.Phases.Total())
	}
}

func TestTransferDominatesLowSkewJoin(t *testing.T) {
	// The §II-B argument for GPU-resident data: at low skew the PCIe copy
	// of the inputs rivals or exceeds the join work itself.
	r, s := workload(t, 100000, 0, 32)
	res := Join(r, s, Config{IncludeTransfer: true})
	var transfer, rest int64
	for _, p := range res.Phases {
		if p.Name == "transfer" {
			transfer = int64(p.Duration)
		} else {
			rest += int64(p.Duration)
		}
	}
	if transfer < rest/2 {
		t.Errorf("at zipf 0 the transfer (%d) should be comparable to the join (%d)", transfer, rest)
	}
}
