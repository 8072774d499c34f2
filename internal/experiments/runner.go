package experiments

import (
	"fmt"
	"sort"

	"smartmem/internal/core"
	"smartmem/internal/metrics"
)

// DefaultSeeds are the run repetitions ("every scenario is executed five
// times with every policy", §IV).
var DefaultSeeds = []uint64{11, 23, 37, 51, 68}

// RunOne executes one (scenario, policy, seed) combination.
func RunOne(s *Scenario, policySpec string, seed uint64) (*core.Result, error) {
	return RunOneWith(s, policySpec, seed, nil)
}

// RunOneWith is RunOne with a lifecycle-event observer (may be nil)
// subscribed to the run. Cluster scenarios execute through the cluster
// runtime; single-node scenarios through the node runtime. Both produce
// one merged core.Result, so everything downstream (times tables, series,
// sinks) treats them uniformly.
func RunOneWith(s *Scenario, policySpec string, seed uint64, obs core.Observer) (*core.Result, error) {
	var res *core.Result
	var err error
	if s.IsCluster() {
		var cc core.ClusterConfig
		cc, err = s.BuildCluster(seed, policySpec)
		if err == nil {
			res, err = core.RunClusterWith(nil, cc, obs)
		}
	} else {
		var cfg core.Config
		cfg, err = s.Build(seed, policySpec)
		if err == nil {
			res, err = core.RunWith(nil, cfg, obs)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s seed %d: %w", s.Slug, policySpec, seed, err)
	}
	if res.HitLimit {
		return nil, fmt.Errorf("experiments: %s/%s seed %d hit the virtual-time limit", s.Slug, policySpec, seed)
	}
	return res, nil
}

// TimesRow aggregates one measurement (a VM × run label) across policies.
type TimesRow struct {
	VM       string
	Label    string
	ByPolicy map[string]metrics.Summary // policy spec → runtime summary (seconds)
}

// TimesTable is the data behind a running-times figure (Figures 3/5/7/9):
// per-VM, per-run mean±std running times for every policy.
type TimesTable struct {
	Scenario *Scenario
	Policies []string
	Seeds    []uint64
	Rows     []TimesRow
}

// Row returns the row for a VM and label, if present.
func (t *TimesTable) Row(vm, label string) (TimesRow, bool) {
	for _, r := range t.Rows {
		if r.VM == vm && r.Label == label {
			return r, true
		}
	}
	return TimesRow{}, false
}

// Speedup returns how much faster policy a is than policy b for a given
// row, as a fraction of b's mean (paper convention).
func (t *TimesTable) Speedup(vm, label, a, b string) (float64, error) {
	row, ok := t.Row(vm, label)
	if !ok {
		return 0, fmt.Errorf("experiments: no measurements for %s/%s", vm, label)
	}
	sa, oka := row.ByPolicy[a]
	sb, okb := row.ByPolicy[b]
	if !oka || !okb {
		return 0, fmt.Errorf("experiments: missing policy %q or %q in row %s/%s", a, b, vm, label)
	}
	return metrics.Speedup(sa, sb), nil
}

// Times runs the scenario for every (policy, seed) combination on the
// worker-pool engine and aggregates running times. policies defaults to
// the scenario's own list; seeds defaults to DefaultSeeds. Execution is
// parallel (runtime.NumCPU() workers) but results merge in job order, so
// the table is identical to a sequential sweep; use TimesOpts to control
// parallelism, cancellation and progress reporting.
func Times(s *Scenario, policies []string, seeds []uint64) (*TimesTable, error) {
	return TimesOpts(s, policies, seeds, Options{})
}

// TimesOpts is Times with explicit execution options.
func TimesOpts(s *Scenario, policies []string, seeds []uint64, opt Options) (*TimesTable, error) {
	if policies == nil {
		policies = s.Policies
	}
	if seeds == nil {
		seeds = DefaultSeeds
	}
	// The table reads Result.Runs only.
	results, err := runMatrixScalars([]*Scenario{s}, policies, seeds, opt)
	if err != nil {
		return nil, err
	}

	// Aggregate strictly in job (policy-major, seed-minor) order — the
	// same order the historical sequential loop used — so parallel and
	// sequential sweeps produce byte-identical tables.
	type key struct{ vm, label string }
	acc := make(map[key]map[string][]float64)
	var order []key
	for _, jr := range results {
		for _, run := range jr.Result.Runs {
			k := key{run.VM, run.Label}
			m, ok := acc[k]
			if !ok {
				m = make(map[string][]float64)
				acc[k] = m
				order = append(order, k)
			}
			m[jr.Job.PolicySpec] = append(m[jr.Job.PolicySpec], run.Duration().Seconds())
		}
	}

	sort.Slice(order, func(i, j int) bool {
		if order[i].vm != order[j].vm {
			return order[i].vm < order[j].vm
		}
		return order[i].label < order[j].label
	})

	table := &TimesTable{Scenario: s, Policies: policies, Seeds: seeds}
	for _, k := range order {
		row := TimesRow{VM: k.vm, Label: k.label, ByPolicy: make(map[string]metrics.Summary)}
		for pol, vals := range acc[k] {
			row.ByPolicy[pol] = metrics.Summarize(vals)
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// SeriesRun holds the tmem-usage time series of one (policy, seed) run —
// the data behind Figures 4, 6, 8 and 10.
type SeriesRun struct {
	Scenario   *Scenario
	PolicySpec string
	Seed       uint64
	Result     *core.Result
}

// Series executes one run and returns its usage/target series.
func Series(s *Scenario, policySpec string, seed uint64) (*SeriesRun, error) {
	runs, err := SeriesSet(s, []string{policySpec}, seed, Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// SeriesSet runs one scenario under several policies with the same seed on
// the worker pool and returns the series runs in policy order — the panels
// of one series figure (e.g. Figure 6's greedy vs smart-alloc pair).
func SeriesSet(s *Scenario, policies []string, seed uint64, opt Options) ([]*SeriesRun, error) {
	jobs := make([]Job, len(policies))
	for i, pol := range policies {
		jobs[i] = Job{Scenario: s, PolicySpec: pol, Seed: seed}
	}
	results, err := opt.run(jobs, false)
	if err != nil {
		return nil, err
	}
	out := make([]*SeriesRun, len(results))
	for i, jr := range results {
		out[i] = &SeriesRun{Scenario: s, PolicySpec: jr.Job.PolicySpec, Seed: seed, Result: jr.Result}
	}
	return out, nil
}
