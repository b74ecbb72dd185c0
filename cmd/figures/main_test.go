package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/golden"
)

// raceEnabled is set by race_test.go in -race builds, where the full grid
// takes most of a minute: the tests then render the capital section alone.
var raceEnabled bool

// runBoard runs the board once for every test of the package: every study,
// or capital alone under -race.
var runBoard = sync.OnceValues(func() ([]section, error) {
	if raceEnabled {
		return run(paperOrder[:1], 0)
	}
	return run(paperOrder, 0)
})

func board(t *testing.T) []section {
	t.Helper()
	secs, err := runBoard()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

func render(secs []section) string {
	var buf bytes.Buffer
	write(&buf, secs)
	return buf.String()
}

// boardPath is the committed board, relative to this package.
var boardPath = filepath.Join("..", "..", "BENCH_figures.md")

func committed(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(boardPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBoardMatchesCommittedFile renders the board and compares it byte for
// byte with BENCH_figures.md (under -race, with the preamble and capital
// section the file begins with).
func TestBoardMatchesCommittedFile(t *testing.T) {
	got := render(board(t))
	if raceEnabled {
		if !strings.HasPrefix(committed(t), got) {
			t.Errorf("BENCH_figures.md does not begin with the capital section; regenerate it with %s", golden.Regenerate)
		}
		return
	}
	golden.Check(t, boardPath, []byte(got))
}

// TestCapitalSectionIdenticalAtOneWorker renders capital alone on one worker:
// the preamble and capital section, its strategy table included, must be how
// both the default-worker board and the committed file begin.
func TestCapitalSectionIdenticalAtOneWorker(t *testing.T) {
	secs, err := run(paperOrder[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	one := render(secs)
	if !strings.Contains(one, "## capital-cholesky") {
		t.Fatalf("no capital section:\n%s", one)
	}
	if full := render(board(t)); !strings.HasPrefix(full, one) {
		t.Errorf("the capital section differs between 1 worker and the default pool:\n%s", one)
	}
	if !strings.HasPrefix(committed(t), one) {
		t.Errorf("BENCH_figures.md does not begin with the 1-worker capital section; regenerate it with %s", golden.Regenerate)
	}
}

// TestExhaustiveCellsMatchGoldenEnvelopes ties the board to the repository's
// determinism anchor: every exhaustive cell of the board at a (policy, eps)
// that internal/autotune/testdata/envelope_<study>_exhaustive.golden.json
// holds marshals to the same JSON bytes as that golden cell.
func TestExhaustiveCellsMatchGoldenEnvelopes(t *testing.T) {
	for i, s := range board(t) {
		path := filepath.Join("..", "..", "internal", "autotune", "testdata", "envelope_"+paperOrder[i]+"_exhaustive.golden.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var golden autotune.Result
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for gpi, pol := range golden.Policies {
			for gei, eps := range golden.EpsList {
				pi, ei := slices.Index(s.res.Policies, pol), slices.Index(s.res.EpsList, eps)
				if pi < 0 || ei < 0 {
					t.Fatalf("%s: the board has no cell (%s, eps %g)", s.study.Name, pol, eps)
				}
				want, err := json.Marshal(golden.Sweeps[gpi][gei])
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(s.res.Sweeps[pi][ei])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s (%s, eps %g): the board's exhaustive sweep differs from %s", s.study.Name, pol, eps, path)
				}
			}
		}
	}
}

// TestSurrogateHitsOnHalfTheKernels holds the surrogate to what the board's
// strategy tables show: on capital, the board's first section (under -race
// its only one), its selection lands, and stays, within epsilon of the
// optimum while it executes at most half of the exhaustive sweep's kernels.
// On the other studies it misses at seed 42; their outcomes are logged.
func TestSurrogateHitsOnHalfTheKernels(t *testing.T) {
	hit := map[string]bool{}
	secs := board(t)
	for _, s := range secs {
		for _, r := range s.rows {
			// toEps >= 0 means the final selection is inside epsilon: the
			// walk in score resets it whenever the running choice leaves.
			if strings.HasPrefix(r.strategy, "surrogate:") && r.toEps >= 0 && r.frac <= 0.5 {
				hit[s.study.Name] = true
			}
		}
		t.Logf("%s: surrogate hit %v", s.study.Name, hit[s.study.Name])
	}
	if capital := secs[0].study.Name; !hit[capital] {
		t.Errorf("%s: surrogate not within epsilon at <= 50%% of exhaustive kernels", capital)
	}
}

// sectionText renders one study's section and splits it at the
// per-configuration heading into the tuning table and Figure 3's table.
func sectionText(t *testing.T, s section) (tuning, perConfig string) {
	t.Helper()
	var buf bytes.Buffer
	s.write(&buf)
	tuning, perConfig, ok := strings.Cut(buf.String(), "\nPer configuration:")
	if !ok {
		t.Fatalf("%s: no per-configuration table:\n%s", s.study.Name, buf.String())
	}
	return tuning, perConfig
}

// TestFig3PrintsAllConfigs checks that every section's per-configuration
// table carries Figure 3's BSP cost and time-breakdown columns and exactly
// one row per configuration, in configuration order.
func TestFig3PrintsAllConfigs(t *testing.T) {
	for _, s := range board(t) {
		_, perConfig := sectionText(t, s)
		for _, col := range []string{"comm crit", "comm vol", "sync crit", "sync vol", "comp crit", "comp vol", "exec s", "comp s", "comm s"} {
			if !strings.Contains(perConfig, "| "+col+" |") {
				t.Errorf("%s: per-configuration table lacks column %q", s.study.Name, col)
			}
		}
		var rows []string
		for _, line := range strings.Split(perConfig, "\n") {
			if len(line) > 2 && line[0] == '|' && line[2] >= '0' && line[2] <= '9' {
				rows = append(rows, line)
			}
		}
		if len(rows) != s.study.Size() {
			t.Fatalf("%s: %d configuration rows, want %d", s.study.Name, len(rows), s.study.Size())
		}
		for v, row := range rows {
			if want := fmt.Sprintf("| %d | %s |", v, s.study.Label(v)); !strings.HasPrefix(row, want) {
				t.Errorf("%s: row %d is %q, want it to begin %q", s.study.Name, v, row, want)
			}
		}
	}
}

// TestTuningPrints checks that every section's tuning table carries the
// series of Figures 4-5 a-f and the selection columns, with exactly one row
// per (policy, eps) of the study's grid.
func TestTuningPrints(t *testing.T) {
	for _, s := range board(t) {
		tuning, _ := sectionText(t, s)
		for _, col := range []string{"search s", "speedup", "kernel s", "executed", "skipped", "log2 exec err", "log2 comp err", "selected", "optimal", "rel-perf"} {
			if !strings.Contains(tuning, "| "+col+" |") {
				t.Errorf("%s: tuning table lacks column %q", s.study.Name, col)
			}
		}
		if !strings.Contains(tuning, "Full execution (the red line):") || !strings.Contains(tuning, "True optimum:") {
			t.Errorf("%s: section lacks the full-execution baseline or the true optimum", s.study.Name)
		}
		for _, pol := range s.res.Policies {
			for _, eps := range s.res.EpsList {
				if row := fmt.Sprintf("| %s | %.0f |", pol, math.Log2(eps)); strings.Count(tuning, row) != 1 {
					t.Errorf("%s: want exactly one row beginning %q", s.study.Name, row)
				}
			}
		}
	}
}

// TestTuningShapesMatchPaper holds the board's own grid to the qualitative
// shape of Figures 4 and 5: selective tuning at eps = 1 costs no more than
// full execution (within noise), a tighter tolerance never costs less than
// half a looser one, and on CAPITAL eager propagation beats conditional
// execution at every tolerance (Figure 4a).
func TestTuningShapesMatchPaper(t *testing.T) {
	secs := board(t)
	for _, s := range secs {
		res := s.res
		for pi, pol := range res.Policies {
			sweeps := res.Sweeps[pi]
			if loose := sweeps[0]; pol != critter.APriori && loose.TuneWall > 1.1*loose.FullWall {
				t.Errorf("%s %s: tuning at eps=1 (%g) above full execution (%g)", s.study.Name, pol, loose.TuneWall, loose.FullWall)
			}
			for i := range sweeps {
				for j := i + 1; j < len(sweeps); j++ {
					if sweeps[j].TuneWall < 0.5*sweeps[i].TuneWall {
						t.Errorf("%s %s: eps %g costs %g, under half of eps %g's %g", s.study.Name, pol,
							sweeps[j].Eps, sweeps[j].TuneWall, sweeps[i].Eps, sweeps[i].TuneWall)
					}
				}
			}
		}
	}
	capital := secs[0].res
	if capital.Study != "capital-cholesky" {
		t.Fatalf("first study is %s, want capital-cholesky", capital.Study)
	}
	ei, ci := slices.Index(capital.Policies, critter.Eager), slices.Index(capital.Policies, critter.Conditional)
	if ei < 0 || ci < 0 {
		t.Fatalf("capital grid lacks eager or conditional: %v", capital.Policies)
	}
	for k, eps := range capital.EpsList {
		if eager, cond := capital.Sweeps[ei][k].TuneWall, capital.Sweeps[ci][k].TuneWall; eager >= cond {
			t.Errorf("eps %g: eager (%g) should beat conditional (%g) on CAPITAL", eps, eager, cond)
		}
	}
}
