package csh

import "testing"

// TestNMTimingSplit checks BuildNs/ProbeNs through CSH's NM-join: positive
// whenever normal partitions exist, and bounded by threads × nmjoin wall.
func TestNMTimingSplit(t *testing.T) {
	const threads = 3
	r, s := workload(t, 30000, 0.5, 33)
	res := Join(r, s, Config{Threads: threads})
	st := res.Stats.NM
	if st.BuildNs <= 0 || st.ProbeNs <= 0 {
		t.Fatalf("BuildNs=%d ProbeNs=%d, want both positive", st.BuildNs, st.ProbeNs)
	}
	var nmWall int64
	for _, p := range res.Phases {
		if p.Name == "nmjoin" {
			nmWall = p.Duration.Nanoseconds()
		}
	}
	if nmWall == 0 {
		t.Fatal("no nmjoin phase recorded")
	}
	if budget := threads*nmWall + int64(1e6); st.BuildNs+st.ProbeNs > budget {
		t.Errorf("BuildNs+ProbeNs = %d exceeds %d (threads × nmjoin wall + grain)",
			st.BuildNs+st.ProbeNs, budget)
	}
}
