// Package workload makes tuning problems first-class, registrable values.
// A Workload names a problem, describes it, declares its configuration
// space, default selective-execution policies, and named scale presets, and
// builds the runnable autotune.Study for a given scale. A Registry maps
// flag/API names to Workloads; the process-global Default registry carries
// the paper's four case studies plus the two example workloads, and
// downstream users add their own through Register (re-exported by the
// critter facade), which the CLIs, the figures generator, and the service
// layer then resolve by name — no switch statement to extend.
//
// The package sits above internal/autotune (it imports Study, Space, and
// Scale from it).
package workload

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"critter/internal/autotune"
	"critter/internal/critter"
)

// ScalePreset is one named problem size a workload declares, e.g.
// {"quick", QuickScale()}. Presets are what the CLIs' and the service's
// scale fields resolve against.
type ScalePreset struct {
	Name  string
	Scale autotune.Scale
}

// Workload is a first-class tuning problem: everything the harness needs to
// list it, size it, and run it, behind a name.
type Workload interface {
	// Name is the registry key, as used in flags and the JSON API.
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Space returns the configuration space at the given scale.
	Space(s autotune.Scale) autotune.Space
	// Build constructs the runnable study at the given scale.
	Build(s autotune.Scale) autotune.Study
	// Policies lists the selective-execution policies evaluated by
	// default when a caller does not choose its own.
	Policies() []critter.Policy
	// Scales lists the workload's named scale presets, preferred first.
	Scales() []ScalePreset
}

// Def is a declarative Workload implementation: fill the fields, register
// the value. BuildFunc is the only required field besides the name.
type Def struct {
	// WorkloadName is the registry key.
	WorkloadName string
	// Description is the one-line listing text.
	Description string
	// BuildFunc constructs the study at a scale.
	BuildFunc func(autotune.Scale) autotune.Study
	// DefaultPolicies is the policy list evaluated when the caller does
	// not choose; empty falls back to the built study's own list.
	DefaultPolicies []critter.Policy
	// ScalePresets are the named problem sizes; empty falls back to the
	// shared default/quick pair.
	ScalePresets []ScalePreset
}

// Name implements Workload.
func (d Def) Name() string { return d.WorkloadName }

// Describe implements Workload.
func (d Def) Describe() string { return d.Description }

// Space implements Workload via the built study's declared space.
func (d Def) Space(s autotune.Scale) autotune.Space { return d.Build(s).Space }

// Build implements Workload.
func (d Def) Build(s autotune.Scale) autotune.Study { return d.BuildFunc(s) }

// Policies implements Workload; an empty DefaultPolicies falls back to the
// study's own declared list (at the first preset's scale, which the
// built-in studies declare scale-independently).
func (d Def) Policies() []critter.Policy {
	if len(d.DefaultPolicies) > 0 {
		return d.DefaultPolicies
	}
	return d.Build(d.firstScale()).Policies
}

// Scales implements Workload, defaulting to the shared default/quick pair.
func (d Def) Scales() []ScalePreset {
	if len(d.ScalePresets) > 0 {
		return d.ScalePresets
	}
	return []ScalePreset{
		{Name: "default", Scale: autotune.DefaultScale()},
		{Name: "quick", Scale: autotune.QuickScale()},
	}
}

func (d Def) firstScale() autotune.Scale { return d.Scales()[0].Scale }

// Registry maps workload names to Workloads. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Workload
	order  []string // registration order, for stable listings
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Workload)}
}

// Register adds w under its name. Empty names and duplicates are errors:
// a registry is a namespace, and silently replacing a workload would make
// results irreproducible.
func (r *Registry) Register(w Workload) error {
	// Catch typed nils (e.g. (*Def)(nil)) before the first method call
	// dereferences them: a nil pointer in a non-nil interface passes a
	// plain == nil check.
	if w == nil || (reflect.ValueOf(w).Kind() == reflect.Pointer && reflect.ValueOf(w).IsNil()) {
		return fmt.Errorf("workload: Register(nil)")
	}
	name := w.Name()
	if name == "" {
		return fmt.Errorf("workload: register: empty workload name")
	}
	// A Def without its builder would register fine and then panic the
	// first time anything resolves it (catalog listings build the study
	// to size the space); reject it at the door instead — value or
	// pointer, both satisfy Workload.
	missingBuild := false
	switch d := w.(type) {
	case Def:
		missingBuild = d.BuildFunc == nil
	case *Def:
		missingBuild = d.BuildFunc == nil // nil *Def was rejected above
	}
	if missingBuild {
		return fmt.Errorf("workload: register %q: Def.BuildFunc is required", name)
	}
	// Every consumer of the catalog (scale resolution, markdown and JSON
	// listings) indexes the first declared preset, so an empty preset
	// list is rejected here rather than panicking there. Def can never
	// trip this (its Scales falls back to default/quick); this guards
	// hand-rolled Workload implementations.
	scales := w.Scales()
	if len(scales) == 0 {
		return fmt.Errorf("workload: register %q: at least one scale preset is required", name)
	}
	// A workload whose study has no configurations, no runner or no ranks
	// would resolve fine and then fail every sweep; reject it here, sized
	// at the first preset like the catalog listings.
	if err := w.Build(scales[0].Scale).Validate(); err != nil {
		return fmt.Errorf("workload: register %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("workload: register: %q already registered", name)
	}
	r.byName[name] = w
	r.order = append(r.order, name)
	return nil
}

// Lookup resolves a workload by name.
func (r *Registry) Lookup(name string) (Workload, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.byName[name]
	return w, ok
}

// List returns every registered workload in registration order (built-ins
// first, in the paper's presentation order).
func (r *Registry) List() []Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Workload, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// ScaleNames returns the union of every registered workload's preset
// names, sorted, for error messages and listings.
func (r *Registry) ScaleNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range r.List() {
		for _, p := range w.Scales() {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// defaultRegistry is the process-global registry the package-level
// functions resolve against.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Register adds w to the default registry.
func Register(w Workload) error { return defaultRegistry.Register(w) }

// mustRegister registers a built-in; a failure is a programming error.
func mustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// Lookup resolves a workload by name in the default registry.
func Lookup(name string) (Workload, bool) { return defaultRegistry.Lookup(name) }

// List returns the default registry's workloads in registration order.
func List() []Workload { return defaultRegistry.List() }

// Names returns the default registry's workload names in registration
// order.
func Names() []string { return defaultRegistry.Names() }

// ResolveStudy resolves a workload name and one of its declared scale
// presets together, building the study — the canonical name-to-study path
// for the CLIs and the service: the scale namespace is the chosen
// workload's own presets, so a preset declared only by some other
// workload does not resolve here. Both error paths enumerate the valid
// names.
func ResolveStudy(reg *Registry, workloadName, scaleName string) (autotune.Study, error) {
	if reg == nil {
		reg = defaultRegistry
	}
	w, ok := reg.Lookup(workloadName)
	if !ok {
		return autotune.Study{}, fmt.Errorf("workload: unknown workload %q (want %s)",
			workloadName, strings.Join(reg.Names(), ", "))
	}
	s, err := ScaleOf(w, scaleName)
	if err != nil {
		return autotune.Study{}, err
	}
	return w.Build(s), nil
}

// ScaleOf resolves one of w's declared scale presets by name. The error
// enumerates w's preset names.
func ScaleOf(w Workload, name string) (autotune.Scale, error) {
	presets := w.Scales()
	for _, p := range presets {
		if p.Name == name {
			return p.Scale, nil
		}
	}
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return autotune.Scale{}, fmt.Errorf("workload: %s: unknown scale %q (want %s)",
		w.Name(), name, strings.Join(names, ", "))
}
