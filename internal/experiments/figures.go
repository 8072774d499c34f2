package experiments

import (
	"fmt"
	"io"
	"strings"

	"smartmem/internal/policy"
	"smartmem/internal/report"
)

// TimesReport renders a TimesTable in the layout of the paper's
// running-time figures: one row per VM×run, one column per policy.
func TimesReport(t *TimesTable) *report.Table {
	tb := &report.Table{
		Title:   fmt.Sprintf("%s — %s running times (virtual seconds, mean±std over %d seeds)", t.Scenario.TimesFigure, t.Scenario.Name, len(t.Seeds)),
		Headers: append([]string{"vm", "run"}, t.Policies...),
	}
	for _, row := range t.Rows {
		cells := []string{row.VM, row.Label}
		for _, pol := range t.Policies {
			cells = append(cells, report.FormatSummary(row.ByPolicy[pol]))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// RenderSeries draws the per-VM tmem usage chart of one run (the paper's
// Figures 4/6/8/10 panels), plus the target series for the VM the paper
// annotates (VM3). A cluster run charts every node's usage series instead:
// "tmem-n0/VM1" and so on, and "tmem-n0/remote" for the pages n0 holds for
// its peers.
func RenderSeries(w io.Writer, sr *SeriesRun) error {
	set := sr.Result.Series
	var names []string
	if len(sr.Result.Nodes) > 0 {
		for _, n := range set.Names() {
			if strings.HasPrefix(n, "tmem-") {
				names = append(names, n)
			}
		}
	} else {
		for _, vm := range []string{"VM1", "VM2", "VM3"} {
			if set.Has("tmem-" + vm) {
				names = append(names, "tmem-"+vm)
			}
		}
		if set.Has("target-VM3") {
			names = append(names, "target-VM3")
		}
	}
	if len(names) == 0 {
		_, err := fmt.Fprintln(w, "(no tmem series: no-tmem run)")
		return err
	}
	c := report.Chart{
		Title: fmt.Sprintf("%s — %s tmem usage, policy %s (seed %d)",
			sr.Scenario.SeriesFigure, sr.Scenario.Name, sr.PolicySpec, sr.Seed),
		YLabel: "pages",
	}
	return c.Render(w, set, names)
}

// ScenarioTable renders Table II: the paper's benchmarking scenarios.
func ScenarioTable() *report.Table {
	tb := &report.Table{
		Title:   "Table II — List of scenarios used for benchmarking (3 VMs each)",
		Headers: []string{"scenario", "tmem", "policies", "description"},
	}
	for _, s := range PaperScenarios() {
		tb.AddRow(s.Name, s.TmemBytes.String(), fmt.Sprintf("%d", len(s.Policies)), s.Description)
	}
	return tb
}

// RegistryTable renders the full scenario registry — paper scenarios,
// extensions (including the multi-node cluster scenarios), and any user
// registrations — plus the parameterized slug families (constructors).
func RegistryTable() *report.Table {
	tb := &report.Table{
		Title:   "Scenario registry",
		Headers: []string{"slug", "name", "tmem", "kind", "description"},
	}
	for _, s := range All() {
		kind := "extension"
		switch {
		case s.Paper:
			kind = "paper"
		case s.IsCluster():
			kind = "cluster"
		}
		tb.AddRow(s.Slug, s.Name, s.TmemBytes.String(), kind, s.Description)
	}
	for _, c := range Constructors() {
		tb.AddRow(c.Usage, "(parameterized)", "", "", c.Description)
	}
	return tb
}

// PolicyTable renders the policy registry for the commands' -list-policies
// flags.
func PolicyTable() *report.Table {
	tb := &report.Table{
		Title:   "Policy registry",
		Headers: []string{"spec", "aliases", "description"},
	}
	for _, e := range policy.All() {
		tb.AddRow(e.Usage, strings.Join(e.Aliases, ", "), e.Description)
	}
	return tb
}
