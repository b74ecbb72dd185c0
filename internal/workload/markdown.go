package workload

import (
	"fmt"
	"strings"
)

// MarkdownTable renders a registry's catalog (nil means the default
// registry) as a GitHub-flavored markdown table — the generated workload
// table in the README's Tuner section. A test pins the README copy to this
// output, so the docs can never drift from what the registry serves.
func MarkdownTable(reg *Registry) string {
	if reg == nil {
		reg = defaultRegistry
	}
	var b strings.Builder
	b.WriteString("| workload | configurations | default policies | scales | description |\n")
	b.WriteString("| --- | --- | --- | --- | --- |\n")
	for _, w := range reg.List() {
		var scaleNames []string
		for _, p := range w.Scales {
			scaleNames = append(scaleNames, p.Name)
		}
		var policies []string
		for _, p := range w.Policies {
			policies = append(policies, p.String())
		}
		fmt.Fprintf(&b, "| `%s` | %d | %s | %s | %s |\n",
			w.Name, w.Build(w.Scales[0].Scale).Size(),
			strings.Join(policies, ", "), strings.Join(scaleNames, ", "),
			w.Description)
	}
	return b.String()
}
