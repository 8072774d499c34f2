// Tournament mode: sweep policies × scenarios × seeds on the parallel
// engine and rank the policies in a deterministic league table — the
// ROADMAP's "policy-tournament" evaluation harness. The paper's claim is
// that smart tmem allocation beats greedy across workload mixes; a
// tournament is that claim run at scale, with disk I/O avoided as the
// score (the paper's figures all reduce to "how often did a refault reach
// the disk").
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smartmem/internal/report"
)

// LeagueEntry is one policy's row of a league table: its disk-traffic
// spread and pooled tmem hit rate over every aggregated (scenario, seed)
// cell, ranked best-first.
type LeagueEntry struct {
	// Rank is the 1-based position after sorting (1 = best). Ranking is by
	// ascending mean disk ops, then descending hit rate, then policy
	// submission order — fully deterministic.
	Rank int `json:"rank"`
	// Policy is the policy spec ("smart-alloc:P=2").
	Policy string `json:"policy"`
	// Cells counts the (scenario, seed) runs aggregated into this row.
	Cells int `json:"cells"`
	// MeanDiskOps / MinDiskOps / MaxDiskOps summarize total host-disk
	// operations per cell — the paper's figure of merit, lower is better.
	MeanDiskOps float64 `json:"mean_disk_ops"`
	MinDiskOps  uint64  `json:"min_disk_ops"`
	MaxDiskOps  uint64  `json:"max_disk_ops"`
	// HitRate is the pooled tmem hit rate over all cells' VMs:
	// Σ hits / Σ (hits + misses) of every guest's refault traffic.
	// 0 for the no-tmem baseline.
	HitRate float64 `json:"hit_rate"`
	// MeanVirtSeconds is the mean virtual completion time per cell.
	MeanVirtSeconds float64 `json:"mean_virt_seconds"`
}

// ScenarioLeague is the league restricted to one scenario's cells.
type ScenarioLeague struct {
	Scenario string        `json:"scenario"`
	Entries  []LeagueEntry `json:"entries"`
}

// LeagueTable is a tournament's full outcome. Identical inputs produce a
// byte-identical table (under WriteLeagueJSON/WriteLeagueCSV) regardless of
// parallelism or cache state — the engine merges by index
// and every aggregation below walks slices in deterministic order.
type LeagueTable struct {
	Scenarios []string `json:"scenarios"`
	Policies  []string `json:"policies"`
	Seeds     []uint64 `json:"seeds"`
	// Overall ranks each policy over every scenario × seed cell.
	Overall []LeagueEntry `json:"overall"`
	// PerScenario breaks the ranking down per scenario, in scenario order.
	PerScenario []ScenarioLeague `json:"per_scenario"`
}

// Winner returns the top-ranked policy spec ("" for an empty table).
func (t *LeagueTable) Winner() string {
	if len(t.Overall) == 0 {
		return ""
	}
	return t.Overall[0].Policy
}

// RunTournament sweeps every scenario × policy × seed cell on the engine
// and aggregates the league table. A nil policies slice selects the union
// of the scenarios' own policy lists (first-seen order); nil seeds selects
// DefaultSeeds. Use Options.Cache to memoize cells across tournaments and
// Options.Parallelism to size the worker pool.
func RunTournament(scenarios []*Scenario, policies []string, seeds []uint64, opt Options) (*LeagueTable, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("experiments: tournament with no scenarios")
	}
	if policies == nil {
		policies = unionPolicies(scenarios)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("experiments: tournament with no policies")
	}
	if seeds == nil {
		seeds = DefaultSeeds
	}

	// The league reads DiskOps, EndTime and two counters per VM.
	results, err := runMatrixScalars(scenarios, policies, seeds, opt)
	if err != nil {
		return nil, err
	}

	t := &LeagueTable{
		Policies: append([]string(nil), policies...),
		Seeds:    append([]uint64(nil), seeds...),
	}
	for _, s := range scenarios {
		t.Scenarios = append(t.Scenarios, s.Slug)
	}
	t.Overall = rankEntries(results, policies, func(JobResult) bool { return true })
	for _, s := range scenarios {
		slug := s.Slug
		t.PerScenario = append(t.PerScenario, ScenarioLeague{
			Scenario: slug,
			Entries:  rankEntries(results, policies, func(jr JobResult) bool { return jr.Job.Scenario.Slug == slug }),
		})
	}
	return t, nil
}

// unionPolicies merges the scenarios' policy lists in first-seen order.
func unionPolicies(scenarios []*Scenario) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range scenarios {
		for _, pol := range s.Policies {
			if !seen[pol] {
				seen[pol] = true
				out = append(out, pol)
			}
		}
	}
	return out
}

// rankEntries aggregates the kept cells per policy and ranks them.
func rankEntries(results []JobResult, policies []string, keep func(JobResult) bool) []LeagueEntry {
	entries := make([]LeagueEntry, 0, len(policies))
	for _, pol := range policies {
		var (
			cells        int
			sumOps       float64
			minOps       uint64
			maxOps       uint64
			hits, misses uint64
			sumVirt      float64
		)
		for _, jr := range results {
			if jr.Job.PolicySpec != pol || jr.Result == nil || jr.Err != nil || !keep(jr) {
				continue
			}
			r := jr.Result
			if cells == 0 || r.DiskOps < minOps {
				minOps = r.DiskOps
			}
			if cells == 0 || r.DiskOps > maxOps {
				maxOps = r.DiskOps
			}
			sumOps += float64(r.DiskOps)
			sumVirt += r.EndTime.Seconds()
			for _, vm := range r.VMs {
				hits += vm.Kernel.TmemHits
				misses += vm.Kernel.TmemMisses
			}
			cells++
		}
		if cells == 0 {
			continue
		}
		e := LeagueEntry{
			Policy:          pol,
			Cells:           cells,
			MeanDiskOps:     sumOps / float64(cells),
			MinDiskOps:      minOps,
			MaxDiskOps:      maxOps,
			MeanVirtSeconds: sumVirt / float64(cells),
		}
		if hits+misses > 0 {
			e.HitRate = float64(hits) / float64(hits+misses)
		}
		entries = append(entries, e)
	}
	// Stable sort: ties (identical mean AND hit rate) keep policy
	// submission order, so the ranking is deterministic.
	sortLeague(entries)
	for i := range entries {
		entries[i].Rank = i + 1
	}
	return entries
}

func sortLeague(entries []LeagueEntry) {
	// Insertion sort keeps this dependency-free and stable; league tables
	// have a handful of rows.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && leagueLess(entries[j], entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func leagueLess(a, b LeagueEntry) bool {
	if a.MeanDiskOps != b.MeanDiskOps {
		return a.MeanDiskOps < b.MeanDiskOps
	}
	return a.HitRate > b.HitRate
}

// LeagueReport renders the overall standings as a text table.
func LeagueReport(t *LeagueTable) *report.Table {
	tbl := &report.Table{
		Title: fmt.Sprintf("Policy league — %d scenarios × %d policies × %d seeds",
			len(t.Scenarios), len(t.Policies), len(t.Seeds)),
		Headers: []string{"rank", "policy", "cells", "disk ops (mean)", "min", "max", "hit rate", "virt s (mean)"},
	}
	for _, e := range t.Overall {
		tbl.AddRow(leagueCells(e)...)
	}
	return tbl
}

// ScenarioLeagueReport renders one scenario's standings.
func ScenarioLeagueReport(sl ScenarioLeague) *report.Table {
	tbl := &report.Table{
		Title:   fmt.Sprintf("Scenario %s", sl.Scenario),
		Headers: []string{"rank", "policy", "cells", "disk ops (mean)", "min", "max", "hit rate", "virt s (mean)"},
	}
	for _, e := range sl.Entries {
		tbl.AddRow(leagueCells(e)...)
	}
	return tbl
}

func leagueCells(e LeagueEntry) []string {
	return []string{
		fmt.Sprintf("%d", e.Rank),
		e.Policy,
		fmt.Sprintf("%d", e.Cells),
		fmt.Sprintf("%.1f", e.MeanDiskOps),
		fmt.Sprintf("%d", e.MinDiskOps),
		fmt.Sprintf("%d", e.MaxDiskOps),
		fmt.Sprintf("%.3f", e.HitRate),
		fmt.Sprintf("%.1f", e.MeanVirtSeconds),
	}
}

// WriteLeagueJSON writes the league table as one indented JSON document.
// The encoding is deterministic (struct field order, no maps), so equal
// tables serialize byte-identically — the property the warm-cache tests
// and `make sweep-smoke` compare on.
func WriteLeagueJSON(w io.Writer, t *LeagueTable) error {
	doc := struct {
		Schema string       `json:"schema"`
		League *LeagueTable `json:"league"`
	}{Schema: "smartmem/league@1", League: t}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteLeagueCSV writes the league as CSV: the overall block first
// (scenario column "overall"), then each per-scenario block.
func WriteLeagueCSV(w io.Writer, t *LeagueTable) error {
	if _, err := fmt.Fprintln(w, "scenario,rank,policy,cells,mean_disk_ops,min_disk_ops,max_disk_ops,hit_rate,mean_virt_seconds"); err != nil {
		return err
	}
	block := func(scope string, entries []LeagueEntry) error {
		for _, e := range entries {
			row := []string{
				scope,
				fmt.Sprintf("%d", e.Rank),
				e.Policy,
				fmt.Sprintf("%d", e.Cells),
				fmt.Sprintf("%.1f", e.MeanDiskOps),
				fmt.Sprintf("%d", e.MinDiskOps),
				fmt.Sprintf("%d", e.MaxDiskOps),
				fmt.Sprintf("%.4f", e.HitRate),
				fmt.Sprintf("%.1f", e.MeanVirtSeconds),
			}
			if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
				return err
			}
		}
		return nil
	}
	if err := block("overall", t.Overall); err != nil {
		return err
	}
	for _, sl := range t.PerScenario {
		if err := block(sl.Scenario, sl.Entries); err != nil {
			return err
		}
	}
	return nil
}
