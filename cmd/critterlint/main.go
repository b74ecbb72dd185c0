// Command critterlint runs critter's project-specific static-analysis
// suite: the analyzers in internal/analysis that machine-enforce the
// repo's determinism and concurrency invariants (detrand, maporder,
// fabriclock, schematag, ctxfirst).
//
// It loads the packages matching go list patterns from source:
//
//	go run ./cmd/critterlint ./...
//	go run ./cmd/critterlint -analyzers detrand,maporder ./internal/critter
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics reported.
// Findings are suppressed only by a `//lint:allow <analyzer> <reason>`
// comment on the offending line or the line above — the reason is
// mandatory; a bare directive suppresses nothing.
package main

import (
	"flag"
	"fmt"
	"os"

	"critter/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("critterlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	spec := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: critterlint [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.ByName(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "critterlint:", err)
		return 1
	}
	return runPatterns(analyzers, fs.Args())
}

// runPatterns loads the matching packages from source and analyzes them.
func runPatterns(analyzers []*analysis.Analyzer, patterns []string) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "critterlint:", err)
		return 1
	}
	pkgs, err := analysis.LoadPatterns(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "critterlint:", err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(analyzers, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "critterlint:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			exit = 2
		}
	}
	return exit
}
