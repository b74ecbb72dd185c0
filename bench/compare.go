package main

// Before/after tables: -compare for two report files, and the A/A check,
// which is the same comparison of two runs of one build.

import (
	"fmt"
	"io"
	"math"
)

// verdicts of one workload x metric row.
const (
	verdictSame       = "same"       // within the tolerance either way
	verdictBetter     = "better"     // improved by more than the tolerance
	verdictWorse      = "WORSE"      // worsened by more than the tolerance
	verdictUnresolved = "unresolved" // a side's spread over runs is wider than the tolerance
)

type compareRow struct {
	Workload, Metric, Unit string
	Before, After          metricValues
	// Change is (after-before)/before, signed so that positive is worse.
	Change float64
	// Bound is the tolerance the row is judged by: the metric's bound, or
	// exactTol for a seed-determined metric of two reports with one seed.
	Bound   float64
	Verdict string
}

// worsening returns the relative change of a metric, positive when after
// is worse than before.
func worsening(better string, before, after float64) float64 {
	if before == 0 {
		return 0
	}
	change := (after - before) / math.Abs(before)
	if better == "higher" {
		change = -change
	}
	return change
}

func compareReports(before, after *report) []compareRow {
	sameSeed := before.Seed == after.Seed
	var rows []compareRow
	for _, bw := range before.Workloads {
		aw := after.workload(bw.Name)
		if aw == nil {
			continue
		}
		for _, bm := range bw.EndToEnd {
			am := aw.endToEnd(bm.Name)
			if am == nil {
				continue
			}
			row := compareRow{
				Workload: bw.Name, Metric: bm.Name, Unit: bm.Unit,
				Before: bm, After: *am, Bound: bm.tolerance(sameSeed),
				Change: worsening(bm.Better, bm.median(), am.median()),
			}
			bs, _ := bm.spread()
			as, _ := am.spread()
			switch {
			case bs > row.Bound || as > row.Bound:
				row.Verdict = verdictUnresolved
			case row.Change > row.Bound:
				row.Verdict = verdictWorse
			case row.Change < -row.Bound:
				row.Verdict = verdictBetter
			default:
				row.Verdict = verdictSame
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func side(m metricValues) string {
	if len(m.Values) < 2 {
		return fmt.Sprintf("%s (n=1)", formatValue(m.median()))
	}
	q1, q3 := quartiles(m.Values)
	return fmt.Sprintf("%s [%s..%s] n=%d", formatValue(m.median()), formatValue(q1), formatValue(q3), len(m.Values))
}

// printCompare writes one row per workload x metric: each side's median
// and quartiles over its runs, the ratio with its base, and the verdict.
func printCompare(out io.Writer, rows []compareRow) (worse, unresolved int) {
	fmt.Fprintf(out, "%-13s %-18s %-34s %-34s %-26s %7s  %s\n",
		"workload", "metric", "before: median [q1..q3]", "after: median [q1..q3]", "after/before (base)", "bound", "verdict")
	for _, r := range rows {
		ratio := "n/a"
		if b := r.Before.median(); b != 0 {
			ratio = fmt.Sprintf("%.4f (base %s %s)", r.After.median()/b, formatValue(b), r.Unit)
		}
		fmt.Fprintf(out, "%-13s %-18s %-34s %-34s %-26s %7s  %s\n",
			r.Workload, r.Metric, side(r.Before), side(r.After), ratio, formatBound(r.Bound), r.Verdict)
		switch r.Verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	return worse, unresolved
}

// formatBound prints a tolerance: a percentage, or "exact" for exactTol.
func formatBound(b float64) string {
	if b <= exactTol {
		return "exact"
	}
	return fmt.Sprintf("%.0f%%", 100*b)
}

// printAA writes the A/A table: per workload x metric the two values, their
// relative difference and the tolerance (both runs have one seed, so the
// seed-determined metrics must agree to exactTol). It returns how many
// differences exceed their tolerance, and how many exceed half of it.
func printAA(out io.Writer, r *report) (over, overHalf int) {
	fmt.Fprintf(out, "%-13s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, w := range r.Workloads {
		for _, m := range w.EndToEnd {
			a, b := m.Values[0], m.Values[1]
			diff := 0.0
			if a != b {
				diff = math.Abs(b-a) / math.Max(math.Abs(a), math.Abs(b))
			}
			tol := m.tolerance(true)
			mark := ""
			switch {
			case diff > tol:
				over++
				mark = "  OVER BOUND"
			case diff > tol/2:
				overHalf++
				mark = "  over half the bound"
			}
			fmt.Fprintf(out, "%-13s %-18s %14s %14s %8.2g%% %7s%s\n",
				w.Name, m.Name, formatValue(a), formatValue(b), 100*diff, formatBound(tol), mark)
		}
	}
	return over, overHalf
}
