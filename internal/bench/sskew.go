package bench

import (
	"skewjoin/internal/oracle"
	"skewjoin/internal/zipf"
)

// SSkew is the extension experiment isolating S-side skew: a foreign-key
// workload where R holds every key exactly once (no R skew at all) and
// S's foreign keys are zipf-distributed.
//
// The paper notes Gbase's sub-list technique "does not handle the data
// skew in table S" (§II-B) — but in its evaluation S skew always comes
// with R skew (shared interval arrays). This experiment separates them,
// and the result is a negative finding that sharpens the paper's: with
// unique R keys the join output is exactly |S|, probe chains have length
// one, and one-sided S skew is benign — the baselines barely degrade, and
// skew detection cannot pay for itself (CSH samples R, finds nothing, and
// rightly degenerates to Cbase). S-side skew only hurts *through* R-side
// multiplicity; the paper's dual-skew workload is the genuinely hard case.
// The experiment also exercises the degenerate corner of the paper's
// skew-join scheme (one block per skewed R tuple — a single block when a
// skewed key has one R tuple) and the S-tiling extension that fixes it.
func SSkew(cfg Config) (*Artifact, error) {
	return Run(cfg, &Sweep{
		Name: "sskew", Title: "S-side-only skew: foreign-key workload (extension experiment)",
		Zipfs: cfg.zipfs(figureZipfs), Repeats: 1, Workload: fkWorkload, Measure: cfg.join,
		Arms: arms("cbase", "csh", "gbase", "gsh-paper", "gsh"),
		Rows: []Row{
			{"Cbase", "cbase", nil}, {"CSH", "csh", nil}, {"Gbase", "gbase", nil},
			{"GSH (paper skew-join)", "gsh-paper", nil}, {"GSH (S-tiled)", "gsh", nil},
		},
	})
}

// fkWorkload generates the foreign-key pair over a universe of n/4 keys.
func fkWorkload(n int, theta float64, seed int64) (Workload, error) {
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n / 4, Seed: seed})
	if err != nil {
		return Workload{}, err
	}
	r, s := g.FKPair(n)
	return Workload{Theta: theta, R: r, S: s, Expected: oracle.Expected(r, s)}, nil
}
