package bench

// SortVsHash is the extension experiment revisiting the sort-vs-hash
// question ([13], [17] in the paper) under skew: the parallel sort-merge
// join against the baseline radix join and the skew-conscious CSH.
//
// The expected shape: SMJ pays its sort at every skew level (losing to
// hash joins on uniform data) but its merge phase generates equal-key
// cross products with the same sequential access pattern CSH uses for its
// skew fast path — so at high skew SMJ overtakes Cbase while CSH, which
// only pays the sequential treatment for the keys that need it, stays
// ahead of both.
func SortVsHash(cfg Config) (*Artifact, error) {
	return figure(cfg, "sortvshash", "Sort vs hash under skew (extension experiment)",
		cfg.zipfs(figureZipfs), arms("cbase", "csh", "smj", "gbase", "gsh", "gsmj"),
		Row{"Cbase (radix hash)", "cbase", nil},
		Row{"CSH (skew-conscious)", "csh", nil},
		Row{"SMJ (sort-merge)", "smj", nil},
		Row{"Gbase (GPU hash)", "gbase", nil},
		Row{"GSH (GPU skew-consc.)", "gsh", nil},
		Row{"GSMJ (GPU sort-merge)", "gsmj", nil})
}
