package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"skewjoin"
)

// TestJoinHostParallelism exercises the host_parallelism request knob: a
// GPU join run with host-parallel simulation must return exactly the
// summary and modelled timings of a serial run — the knob only changes
// how fast the host produces them — and a direct library call with the
// same setting must agree.
func TestJoinHostParallelism(t *testing.T) {
	srv := New(Config{ThreadBudget: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := GenerateSpec{N: 1 << 14, Zipf: 0.9, Seed: 42}
	register(t, ts.URL, "r", GenerateSpec{N: spec.N, Zipf: spec.Zipf, Seed: spec.Seed, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: spec.N, Zipf: spec.Zipf, Seed: spec.Seed, Stream: 1})

	runJoin := func(hostPar int) JoinResponse {
		t.Helper()
		status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{
			R: "r", S: "s", Algorithm: "gsh", HostParallelism: hostPar,
		})
		if status != http.StatusOK {
			t.Fatalf("join host_parallelism=%d: status %d: %s", hostPar, status, raw)
		}
		var jr JoinResponse
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		return jr
	}

	serial := runJoin(-1)                // negative: force the serial seed path
	for _, hp := range []int{1, 4, 99} { // 99 exceeds the budget: clamped
		par := runJoin(hp)
		if par.Matches != serial.Matches || par.Checksum != serial.Checksum {
			t.Errorf("host_parallelism=%d: summary (%d, %d) differs from serial (%d, %d)",
				hp, par.Matches, par.Checksum, serial.Matches, serial.Checksum)
		}
		if len(par.Phases) != len(serial.Phases) {
			t.Fatalf("host_parallelism=%d: %d phases vs serial %d", hp, len(par.Phases), len(serial.Phases))
		}
		for i := range par.Phases {
			if par.Phases[i] != serial.Phases[i] {
				t.Errorf("host_parallelism=%d: phase %d = %+v, serial %+v",
					hp, i, par.Phases[i], serial.Phases[i])
			}
		}
	}

	// The served summary must also match a direct library call using the
	// public Options knob.
	r, err := skewjoin.GenerateZipf(spec.N, spec.Zipf, spec.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := skewjoin.GenerateZipf(spec.N, spec.Zipf, spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := skewjoin.Join(skewjoin.GSH, r, s, &skewjoin.Options{Device: skewjoin.DeviceConfig{HostParallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != serial.Matches || res.Checksum != serial.Checksum {
		t.Errorf("library call: summary (%d, %d), served serial (%d, %d)",
			res.Matches, res.Checksum, serial.Matches, serial.Checksum)
	}
}
