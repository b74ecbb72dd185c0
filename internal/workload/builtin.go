package workload

// The default registry's contents: the paper's four case studies under
// their historical flag names, plus the two example workloads — the
// eager-propagation CAPITAL demo of examples/cholesky3d and the
// online-propagation CANDMC demo of examples/qr2d — so every problem the
// repository ships is resolvable by name through one surface.

import (
	"critter/internal/autotune"
	"critter/internal/critter"
)

func init() {
	mustRegister(Workload{
		Name:        "capital",
		Description: "CAPITAL recursive communication-avoiding Cholesky: 15 configs (block size x base-case strategy), kernels persist across configs (eager propagation applies)",
		Build:       autotune.CapitalCholesky,
	})
	mustRegister(Workload{
		Name:        "slate-chol",
		Description: "SLATE tile-based Cholesky: 20 configs (lookahead depth x tile size), kernel models reset per config",
		Build:       autotune.SlateCholesky,
	})
	mustRegister(Workload{
		Name:        "candmc",
		Description: "CANDMC pipelined 2D Householder QR with TSQR panels: 15 configs (block size x grid shape)",
		Build:       autotune.CandmcQR,
	})
	mustRegister(Workload{
		Name:        "slate-qr",
		Description: "SLATE communication-avoiding QR: 63 configs (inner block x tile size x grid shape)",
		Build:       autotune.SlateQR,
	})

	// The example workloads: the same factorizations the examples drive,
	// tuned the way the example mains tune them (their default policies
	// are the comparison each example prints).
	mustRegister(Workload{
		Name:        "cholesky3d",
		Description: "examples/cholesky3d: CAPITAL Cholesky tuned with eager propagation against the conditional baseline (the paper's headline Figure 4a experiment)",
		Build:       autotune.CapitalCholesky,
		Policies:    []critter.Policy{critter.Conditional, critter.Eager},
	})
	mustRegister(Workload{
		Name:        "qr2d",
		Description: "examples/qr2d: CANDMC pipelined 2D QR tuned with online critical-path propagation (the paper's Figure 5a study)",
		Build:       autotune.CandmcQR,
		Policies:    []critter.Policy{critter.Online},
	})
}
