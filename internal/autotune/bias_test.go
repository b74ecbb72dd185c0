package autotune

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"critter/internal/critter"
	"critter/internal/golden"
)

// TestNoiseFreeAccountingBias pins the prediction model's bias with the
// noise taken out. On a NoiseSigma = 0 machine each quick study is swept
// exhaustively at eps 0, where nothing is skipped, and at eps 2^-3, under
// the conditional and online policies. Every configuration's
// |Predicted/Wall - 1| (the selective report's prediction against the
// reference's wall time) is then what the accounting gets wrong, not what
// the machine drew. testdata/noise_free_bias.golden holds its mean and max
// per (study, policy, eps) cell as %.17g text, compared exactly: the golden
// envelopes pin the same Predicted and Wall values bit for bit.
//
// The order of adoption against charging is fixed per op at
// Profiler.complete's callers (ROADMAP item 1(a)): a collective adopts the
// merged path and then charges its leg; a blocking point-to-point op charges
// its leg, whose duration already holds the idle wait for the peer, and then
// adopts, so that wait counts once. At eps 0 capital, candmc and slate-qr are
// then exact to rounding. slate-chol keeps a small over-prediction there: a
// nonblocking send's Wait adopts the receiver's path although the sender's
// clock never waited for the receiver. A change to any of this re-records
// the file with `bash scripts/restat.sh`.
func TestNoiseFreeAccountingBias(t *testing.T) {
	quiet := quickMachine()
	quiet.NoiseSigma = 0
	var b strings.Builder
	for _, st := range quickStudies() {
		res, err := Tuner{
			Study:    st,
			EpsList:  []float64{0, 0.125},
			Machine:  quiet,
			Seed:     42,
			Policies: []critter.Policy{critter.Conditional, critter.Online},
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Sweeps {
			for _, sw := range row {
				if sw.Eps == 0 && sw.Skipped != 0 {
					t.Errorf("%s %s eps 0: skipped %d kernels, want none", st.Name, sw.Policy, sw.Skipped)
				}
				var mean, hi float64
				for _, cr := range sw.Configs {
					e := math.Abs(cr.Selective.Predicted/cr.Full.Wall - 1)
					mean += e
					hi = max(hi, e)
				}
				mean /= float64(len(sw.Configs))
				fmt.Fprintf(&b, "%s %s eps=%g mean=%.17g max=%.17g\n", st.Name, sw.Policy, sw.Eps, mean, hi)
			}
		}
	}
	golden.Check(t, filepath.Join("testdata", "noise_free_bias.golden"), []byte(b.String()))
}
