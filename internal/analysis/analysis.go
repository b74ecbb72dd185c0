// Package analysis is critter's project-specific static-analysis suite: a
// set of analyzers that machine-enforce the repo's determinism and
// concurrency invariants, plus the package-loading and diagnostic plumbing
// the cmd/critterlint driver runs them with.
//
// The paper's value proposition rests on statistically valid, reproducible
// execution-path analysis. This repo encodes that as hard invariants —
// bit-identical golden envelopes, virtual-time-only simulation,
// deterministic sweeps at any worker count — which until now were guarded
// only by after-the-fact tests. The analyzers move those invariants into
// the type-checker's seat so CI fails at the offending line:
//
//   - detrand: no wall-clock or global math/rand in the deterministic
//     layers (everything except internal/service, cmd/, and examples/).
//   - maporder: no order-sensitive work (unsorted appends, float or string
//     accumulation, output writes) inside `range` over a map in the
//     deterministic layers.
//   - fabriclock: raw sync/atomic use in internal/mpi is restricted to
//     fabric.go and world.go, keeping locks off its communication paths.
//   - schematag: a struct that participates in the JSON schema (has any
//     `json` tag) must tag every exported field, so schema drift is
//     compile-time visible.
//   - ctxfirst: context.Context parameters come first, per Go convention
//     and so cancellation plumbing stays greppable.
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) but is built on the standard library's go/ast and
// go/types only, so the module keeps its zero-dependency property. The
// one sanctioned escape hatch is a trailing or preceding comment
//
//	//lint:allow <analyzer> <reason>
//
// with a mandatory reason; a bare directive without a reason does not
// suppress anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring the x/tools analysis API.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:allow directives.
	Name string
	// Doc is a one-paragraph description: the invariant it encodes and why.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report / pass.Reportf.
	Run func(*Pass) error
}

// Pass is the interface between one analyzer and one loaded package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The analyzer name is
// attached by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// All returns the full critterlint analyzer suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		MapOrder,
		FabricLock,
		SchemaTag,
		CtxFirst,
	}
}

// ByName resolves a comma-separated analyzer list against the suite; an
// empty spec selects every analyzer.
func ByName(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", strings.TrimSpace(name))
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to pkg, filters findings through the
// lint:allow suppression comments, and returns the surviving diagnostics in
// file/position order.
func RunAnalyzers(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	allows := collectAllows(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if allows.suppressed(pkg.Fset, d) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// allowSet records, per file and line, which analyzers a lint:allow
// directive suppresses. A directive on line N suppresses findings on line N
// (trailing comment) and line N+1 (preceding comment).
type allowSet map[string]map[int][]string

// allowPrefix is the directive the driver honors. The full form is
// "//lint:allow <analyzer> <reason>"; the reason is mandatory.
const allowPrefix = "lint:allow"

func collectAllows(pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				// fields[0] is the analyzer name; a reason (>= 1 more word)
				// is required for the directive to take effect.
				if len(fields) < 2 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					set[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return set
}

func (s allowSet) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}
