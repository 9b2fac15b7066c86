package cbase

import "testing"

// TestJoinTimingSplit checks the BuildNs/ProbeNs plumbing from the join
// phase into Stats: both positive, and their sum bounded by the thread
// count times the recorded join-phase wall clock.
func TestJoinTimingSplit(t *testing.T) {
	const threads = 3
	r, s := workload(t, 30000, 0.8, 23)
	res := Join(r, s, Config{Threads: threads})
	st := res.Stats.Join
	if st.BuildNs <= 0 || st.ProbeNs <= 0 {
		t.Fatalf("BuildNs=%d ProbeNs=%d, want both positive", st.BuildNs, st.ProbeNs)
	}
	var joinWall int64
	for _, p := range res.Phases {
		if p.Name == "join" {
			joinWall = p.Duration.Nanoseconds()
		}
	}
	if joinWall == 0 {
		t.Fatal("no join phase recorded")
	}
	if budget := threads*joinWall + int64(1e6); st.BuildNs+st.ProbeNs > budget {
		t.Errorf("BuildNs+ProbeNs = %d exceeds %d (threads × join wall + grain)",
			st.BuildNs+st.ProbeNs, budget)
	}
}
