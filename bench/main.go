// Command bench is the repository's benchmark: four workloads that stress
// different layers, the paper's bottom-line metrics beside wall time, CPU
// and memory, per-layer probes, and a traced run. See README.md.
//
//	bench                                  all four workloads, one run
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                       one workload; the last line of
//	                                       output is the driver's JSON
//	bench -aa                              two interleaved runs of one build
//	bench -compare before.json after.json  before/after table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's one-line JSON result")
		seed         = flag.Uint64("seed", goldenSeed, "seed of the generated inputs (42 also checks the golden envelopes)")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time per workload; sets the fixed rep count")
		trace        = flag.Int("trace", 0, "1: the traced run (spans, CPU shares, layer probes) instead of the timed one")
		runs         = flag.Int("runs", 1, "suite runs, interleaved by workload")
		aa           = flag.Bool("aa", false, "run the suite twice and fail if the two runs differ by more than a bound")
		compare      = flag.Bool("compare", false, "compare two report files: -compare before.json after.json")
		outPath      = flag.String("out", "", "write the suite report to this file")
		printSpec    = flag.Bool("spec", false, "print the contract (the content of BENCHMARK.json) and exit")
	)
	flag.Parse()

	if *printSpec {
		fmt.Printf("%s\n", benchmarkJSON())
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare before.json after.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		return 2
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp := filepath.Join(root, ".bench_build", fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	env := &runEnv{root: root, tmpDir: tmp}
	s := &suite{
		ctx: context.Background(), env: env, seed: *seed, seconds: *seconds,
		outDir: filepath.Join(root, "bench", "out"),
	}

	if *workloadName != "" {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		return s.runOne(def, *trace == 1)
	}
	if *aa {
		*runs = 2
	}
	rep, err := s.runAll(*runs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	if *aa {
		fmt.Println("\nA/A: two runs of the same build, interleaved by workload")
		over, overHalf := printAA(os.Stdout, rep)
		fmt.Printf("%d differences over their bound, %d more over half of it\n", over, overHalf)
		if over > 0 {
			code = 1
		}
	}
	if *outPath != "" {
		if err := writeReport(*outPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\n%s\n", data)
	if rep.failed() > 0 {
		code = 1
	}
	return code
}

// findRoot locates the checkout root — the directory holding the goldens —
// from the working directory: the root itself (run.sh) or bench/.
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(c, "internal", "autotune", "testdata")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("checkout root not found: run from the root of the checkout or from bench/")
}

// suite is one invocation's settings.
type suite struct {
	ctx     context.Context
	env     *runEnv
	seed    uint64
	seconds float64
	outDir  string
}

// runAll runs every workload runs times, interleaved by workload (A1 B1 C1
// D1 A2 B2 ...), so slow drift of the box spreads over all of them.
func (s *suite) runAll(runs int, traced bool) (*report, error) {
	rep := &report{Schema: reportSchema, Box: readBox(), Seed: s.seed, Seconds: s.seconds, Runs: runs}
	printBox(os.Stdout, rep.Box)
	for _, def := range workloadDefs {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: def.Name, Why: def.Why})
	}
	for r := 0; r < runs; r++ {
		for i, def := range workloadDefs {
			w := &rep.Workloads[i]
			fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", r+1, runs, def.Name)
			tr, err := runTimed(s.ctx, def, s.seed, def.repCount(s.seconds), s.env)
			if err != nil {
				return nil, err
			}
			w.addTimed(tr)
			if traced {
				tt, err := runTraced(s.ctx, def, s.seed, s.seconds, s.env, s.outDir)
				if err != nil {
					return nil, err
				}
				w.addTraced(tt)
			}
		}
	}
	for i := range rep.Workloads {
		printWorkload(os.Stdout, &rep.Workloads[i])
	}
	return rep, nil
}

// driverResult is the one-line JSON the driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload the way the driver asks and ends standard
// output with the result object.
func (s *suite) runOne(def workloadDef, traced bool) int {
	w := workloadReport{Name: def.Name, Why: def.Why}
	res := driverResult{Metrics: map[string]driverMetric{}}
	printBox(os.Stdout, readBox())
	if traced {
		tt, err := runTraced(s.ctx, def, s.seed, s.seconds, s.env, s.outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		w.addTraced(tt)
		for _, m := range w.PerLayer {
			res.Metrics[m.Name] = driverMetric{m.median(), m.Unit}
		}
	} else {
		tr, err := runTimed(s.ctx, def, s.seed, def.repCount(s.seconds), s.env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		w.addTimed(tr)
		for _, m := range w.EndToEnd {
			res.Metrics[m.Name] = driverMetric{m.median(), m.Unit}
		}
	}
	printWorkload(os.Stdout, &w)
	res.Correct, res.Attempted, res.Failed = w.Failed == 0, w.Attempted, w.Failed
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func runCompare(beforePath, afterPath string) int {
	before, err := readReport(beforePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	after, err := readReport(afterPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Print("before ")
	printBox(os.Stdout, before.Box)
	fmt.Print("after  ")
	printBox(os.Stdout, after.Box)
	if before.Box != after.Box {
		fmt.Println("warning: the two reports come from different boxes; only the seed-determined metrics are comparable")
	}
	if before.Seed != after.Seed || before.Seconds != after.Seconds {
		fmt.Printf("warning: settings differ (seed %d vs %d, seconds %g vs %g)\n", before.Seed, after.Seed, before.Seconds, after.Seconds)
	}
	worse, unresolved := printCompare(os.Stdout, compareReports(before, after))
	fmt.Printf("%d worse by more than their bound, %d unresolved\n", worse, unresolved)
	return 0
}
