package figures

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
)

func machine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

func TestFig3PrintsAllConfigs(t *testing.T) {
	st := autotune.CapitalCholesky(autotune.QuickScale())
	f3, err := RunFig3(st, machine(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f3.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "BSP cost trade-offs") {
		t.Error("missing BSP header")
	}
	if !strings.Contains(out, "execution time breakdown") {
		t.Error("missing time-breakdown header")
	}
	// One row per configuration in each of the two tables.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "0 ") || strings.HasPrefix(line, "14 ") {
			rows++
		}
	}
	if rows != 4 { // configs 0 and 14, twice each
		t.Errorf("expected boundary configs in both tables, found %d rows", rows)
	}
}

func TestRunFig3AllOrderAndProgress(t *testing.T) {
	sts := []autotune.Study{
		autotune.CapitalCholesky(autotune.QuickScale()),
		autotune.SlateCholesky(autotune.QuickScale()),
	}
	var events []string
	f3s, err := RunFig3All(context.Background(), sts, machine(), 1, 2, func(name string, done, total int) {
		events = append(events, name)
		if total != 2 {
			t.Errorf("progress total %d, want 2", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f3s) != 2 || f3s[0].Study.Name != sts[0].Name || f3s[1].Study.Name != sts[1].Name {
		t.Fatalf("results out of order: %v", f3s)
	}
	if len(events) != 2 {
		t.Errorf("got %d progress events, want 2", len(events))
	}
	// The concurrent pass must match a direct run.
	single, err := RunFig3(sts[0], machine(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Reports) != len(f3s[0].Reports) || single.Reports[0] != f3s[0].Reports[0] {
		t.Error("concurrent fig-3 pass differs from direct RunFig3")
	}
}

func TestTuningPrints(t *testing.T) {
	st := autotune.SlateCholesky(autotune.QuickScale())
	tn, err := RunTuning(st, machine(), 2, []float64{0.5, 0.25, 0.125, 0.0625})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tn.PrintAll(&buf)
	out := buf.String()
	for _, want := range []string{
		"exhaustive search exec-time",
		"kernel exec-time",
		"mean log2 exec-time prediction error",
		"mean log2 comp-time prediction error",
		"per-config exec-time prediction error",
		"configuration selection quality",
		"conditional", "local", "online", "apriori",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPerConfigErrUnknownPolicy(t *testing.T) {
	st := autotune.SlateCholesky(autotune.QuickScale())
	tn, err := RunTuning(st, machine(), 2, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tn.PrintPerConfigErr(&buf, critter.Eager, []int{0}, false)
	if !strings.Contains(buf.String(), "not part of this study") {
		t.Error("expected graceful handling of a policy the study does not evaluate")
	}
}

func TestTuningShapesMatchPaper(t *testing.T) {
	// The qualitative shape of the paper's Figures 4/5, on the quick scale:
	// tuning time decreases as eps loosens, and is never more than the
	// full-execution baseline (within noise).
	st := autotune.CapitalCholesky(autotune.QuickScale())
	tn, err := RunTuning(st, machine(), 3, []float64{1, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pol := range tn.Res.Policies {
		loose := tn.Res.Sweeps[pi][0]
		tight := tn.Res.Sweeps[pi][1]
		if pol == critter.APriori {
			continue // pays an extra full pass by design
		}
		if loose.TuneWall > loose.FullWall*1.1 {
			t.Errorf("%s: tuning at eps=1 (%g) above full execution (%g)",
				pol, loose.TuneWall, loose.FullWall)
		}
		if tight.TuneWall < loose.TuneWall*0.5 {
			t.Errorf("%s: tighter tolerance much cheaper than loose: %g vs %g",
				pol, tight.TuneWall, loose.TuneWall)
		}
	}
	// Eager must be the cheapest policy at loose tolerance (Fig 4a).
	var eagerWall, condWall float64
	for pi, pol := range tn.Res.Policies {
		switch pol {
		case critter.Eager:
			eagerWall = tn.Res.Sweeps[pi][1].TuneWall
		case critter.Conditional:
			condWall = tn.Res.Sweeps[pi][1].TuneWall
		}
	}
	if eagerWall >= condWall {
		t.Errorf("eager (%g) should beat conditional (%g) on CAPITAL", eagerWall, condWall)
	}
}
