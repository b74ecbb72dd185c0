// Package workload makes tuning problems first-class, registrable values.
// A Workload names a problem, describes it, declares its default
// selective-execution policies and named scale presets, and builds the
// runnable autotune.Study for a given scale. A Registry maps flag/API names
// to Workloads; the process-global Default registry carries the paper's
// four case studies plus the two example workloads, and downstream users
// add their own through Default().Register (re-exported by the critter
// facade), which the CLIs, the figures generator, and the service layer
// then resolve by name — no switch statement to extend.
//
// The package sits above internal/autotune (it imports Study, Space, and
// Scale from it).
package workload

import (
	"fmt"
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
// list it, size it, and run it, behind a name. Fill Name and Build and
// register the value; Register fills the rest.
type Workload struct {
	// Name is the registry key, as used in flags and the JSON API.
	Name string
	// Description is the one-line listing text.
	Description string
	// Build constructs the runnable study at a scale.
	Build func(autotune.Scale) autotune.Study
	// Policies lists the selective-execution policies evaluated when a
	// caller does not choose its own; Register fills an empty list from
	// the study built at the first preset.
	Policies []critter.Policy
	// Scales lists the named scale presets, preferred first; Register
	// fills an empty list with the default/quick pair.
	Scales []ScalePreset
}

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

// Register adds w under its name. Empty names, a nil Build, a study that
// fails Study.Validate at the first preset, and duplicates are errors: a
// registry is a namespace, and silently replacing a workload would make
// results irreproducible. An empty Scales becomes the default/quick pair
// and an empty Policies the built study's own list, so every stored
// workload is complete.
func (r *Registry) Register(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("workload: register: empty workload name")
	}
	if w.Build == nil {
		return fmt.Errorf("workload: register %q: Build is required", w.Name)
	}
	if len(w.Scales) == 0 {
		w.Scales = []ScalePreset{
			{Name: "default", Scale: autotune.DefaultScale()},
			{Name: "quick", Scale: autotune.QuickScale()},
		}
	}
	// A workload whose study has no configurations, no runner or no ranks
	// would resolve fine and then fail every sweep; reject it here, sized
	// at the first preset like the catalog listings.
	st := w.Build(w.Scales[0].Scale)
	if err := st.Validate(); err != nil {
		return fmt.Errorf("workload: register %q: %w", w.Name, err)
	}
	if len(w.Policies) == 0 {
		w.Policies = st.Policies
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[w.Name]; dup {
		return fmt.Errorf("workload: register: %q already registered", w.Name)
	}
	r.byName[w.Name] = w
	r.order = append(r.order, w.Name)
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
		for _, p := range w.Scales {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// defaultRegistry is the process-global registry.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// mustRegister registers a built-in; a failure is a programming error.
func mustRegister(w Workload) {
	if err := defaultRegistry.Register(w); err != nil {
		panic(err)
	}
}

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
	for _, p := range w.Scales {
		if p.Name == name {
			return p.Scale, nil
		}
	}
	names := make([]string, len(w.Scales))
	for i, p := range w.Scales {
		names[i] = p.Name
	}
	return autotune.Scale{}, fmt.Errorf("workload: %s: unknown scale %q (want %s)",
		w.Name, name, strings.Join(names, ", "))
}
