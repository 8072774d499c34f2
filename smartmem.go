// Package smartmem is a reproduction of "SmarTmem: Intelligent Management
// of Transcendent Memory in a Virtualized Server" (Garrido Platero,
// Nishtala, Carpenter — IPPS/IPDPS Workshops 2019) as a self-contained Go
// library.
//
// It provides, from the bottom up:
//
//   - a Transcendent Memory (tmem) key–value backend with per-VM capacity
//     accounting and target enforcement (paper Algorithm 1),
//   - a guest-kernel model with frontswap/cleancache hooks, an LRU PFRA
//     and a queued virtual-disk model, driven by a deterministic
//     discrete-event simulator,
//   - the TKM statistics relay with in-process and real socket transports,
//   - the four management policies: greedy, static-alloc (Algorithm 2),
//     reconf-static (Algorithm 3) and smart-alloc (Algorithm 4), and
//   - the paper's complete evaluation: the Table II scenarios and runners
//     regenerating every figure (3–10) and table (I–II).
//
// # Quick start
//
// A run is a Session: construct it (the configuration is validated
// immediately), optionally subscribe observers and sinks to its typed
// event stream, then Run it:
//
//	sess, err := smartmem.NewSession(smartmem.Config{
//		TmemBytes:   smartmem.GiB,
//		TmemEnabled: true,
//		Policy:      smartmem.SmartAlloc{P: 2},
//		Seed:        1,
//		VMs: []smartmem.VMSpec{{
//			ID: 1, Name: "VM1", RAMBytes: 512 * smartmem.MiB,
//			Workload: smartmem.Usemem(),
//		}},
//	},
//		smartmem.WithContext(ctx), // cancel mid-run for a partial Result
//		smartmem.WithObserver(smartmem.ObserverFunc(func(e smartmem.Event) {
//			if m, ok := e.(smartmem.Milestone); ok {
//				log.Printf("%s reached %s", m.VM, m.Label)
//			}
//		})),
//		smartmem.WithSink(sinks.NDJSON(os.Stdout)),
//	)
//	if err != nil { ... }
//	res, err := sess.Run()
//
// The one-shot form Run(Config) remains as a thin wrapper for callers that
// only need the final Result, and a paper scenario reruns with:
//
//	table, err := smartmem.ScenarioTimes("s2", nil, nil)
//
// See DESIGN.md for the system inventory and the event-flow architecture,
// and README.md for measured-vs-paper results and command usage.
package smartmem

import (
	"io"

	"smartmem/internal/core"
	"smartmem/internal/durable"
	"smartmem/internal/experiments"
	"smartmem/internal/mem"
	"smartmem/internal/metrics"
	"smartmem/internal/policy"
	"smartmem/internal/sim"
	"smartmem/internal/workload"
)

// Size units for configuration.
const (
	KiB = mem.KiB
	MiB = mem.MiB
	GiB = mem.GiB
)

// Bytes is a byte count (capacities, footprints).
type Bytes = mem.Bytes

// Pages is a page count (targets, tmem accounting).
type Pages = mem.Pages

// Duration is virtual time; time.Millisecond-style constants from package
// time convert directly.
type Duration = sim.Duration

// Common virtual durations.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Config describes a full virtualized-node run. See core.Config for field
// documentation.
type Config = core.Config

// ClusterConfig describes a multi-node run: one Config per node, all nodes
// sharing one simulated clock, optionally wired peer-to-peer so each
// node's remote tmem tier lands in the next node's store (RAMster-style
// overflow). Run one with NewClusterSession, or replicate a single Config
// across homogeneous nodes with NewSession(cfg, WithCluster(n)).
type ClusterConfig = core.ClusterConfig

// NodeResult summarizes one node of a cluster run, including its outbound
// remote-tier traffic.
type NodeResult = core.NodeResult

// VMSpec describes one virtual machine of a run.
type VMSpec = core.VMSpec

// Result is the outcome of a node run: per-VM run records, statistics and
// tmem time series. Cluster runs merge all nodes into one Result (VM names
// node-prefixed, counters summed) and break totals down in Result.Nodes.
type Result = core.Result

// RunRecord is one completed workload run measurement.
type RunRecord = core.RunRecord

// BlobStore is the pluggable durable-tier backend (see internal/durable):
// set Config.DurableBlob to one and persistent pages demoted past the RAM
// tiers are journaled to a write-ahead log with periodic slab snapshots.
// The journal keeps only an index of its pages in memory and reads their
// bytes back through the store's ranged reads when it needs them.
type BlobStore = durable.BlobStore

// DurableSummary reports a durable tier's end-of-run counters
// (Result.Durable / NodeResult.Durable).
type DurableSummary = durable.Summary

// NewMemBlobStore returns an in-memory blob store: self-contained durable
// runs and tests (state survives reopening the same store value, not the
// process).
func NewMemBlobStore() BlobStore { return durable.NewMemStore() }

// NewDirBlobStore returns a blob store rooted at an on-disk directory, so
// a run's durable state survives the process.
func NewDirBlobStore(dir string) (BlobStore, error) { return durable.NewDirStore(dir) }

// Policy computes per-VM tmem capacity targets each sampling interval.
type Policy = policy.Policy

// The paper's management policies (§III-E).
type (
	// Greedy is the hypervisor default: first come, first served.
	Greedy = policy.Greedy
	// StaticAlloc divides tmem equally across registered VMs
	// (Algorithm 2).
	StaticAlloc = policy.StaticAlloc
	// ReconfStatic divides tmem equally across VMs that have used it
	// (Algorithm 3).
	ReconfStatic = policy.ReconfStatic
	// SmartAlloc adapts per-VM targets to demand (Algorithm 4).
	SmartAlloc = policy.SmartAlloc
)

// Workload is an application model runnable inside a VM.
type Workload = workload.Workload

// Run executes one simulated node run to completion: a thin wrapper over
// NewSession(cfg) + Session.Run for callers that only need the final
// Result. Use NewSession directly to observe or cancel the run while it
// executes.
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// ParsePolicy builds a policy from its command-line spec, e.g. "no-tmem",
// "greedy", "static-alloc", "reconf-static", "smart-alloc:P=0.75". Every
// name in the policy registry resolves, including user registrations.
func ParsePolicy(spec string) (Policy, error) { return policy.Parse(spec) }

// PolicyInfo describes one registered policy family for listings.
type PolicyInfo = policy.Entry

// Policies lists every registered policy family: the paper's built-ins
// first, then user registrations.
func Policies() []PolicyInfo { return policy.All() }

// RegisterPolicy adds a policy family to the registry, making its name
// resolvable from ParsePolicy and the commands' -policy flags.
func RegisterPolicy(e PolicyInfo) { policy.Register(e) }

// Usemem returns the paper's usemem micro-benchmark with default
// parameters (128 MiB steps up to 1 GiB, §IV).
func Usemem() Workload { return workload.DefaultUsemem() }

// InMemoryAnalytics is the CloudSuite in-memory-analytics model.
type InMemoryAnalytics = workload.InMemoryAnalytics

// GraphAnalytics is the CloudSuite graph-analytics model.
type GraphAnalytics = workload.GraphAnalytics

// UsememWorkload is the usemem micro-benchmark with explicit parameters.
type UsememWorkload = workload.Usemem

// WorkloadSequence runs several workloads back to back with idle gaps.
type WorkloadSequence = workload.Sequence

// SequenceStep is one element of a WorkloadSequence.
type SequenceStep = workload.SequenceStep

// Summary aggregates repeated measurements (mean, sample std, min, max).
type Summary = metrics.Summary

// RNG is the deterministic random number generator used throughout the
// simulator; derive independent streams with Split.
type RNG = sim.RNG

// NewRNG seeds a deterministic generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Graph is a directed graph in compressed adjacency form, as produced by
// RMAT.
type Graph = workload.Graph

// Ratings is a sparse MovieLens-shaped rating matrix.
type Ratings = workload.Ratings

// RMAT generates a scale-free directed graph (2^scale vertices,
// ~edgeFactor·2^scale edges) shaped like the paper's soc-twitter-follows
// dataset.
func RMAT(rng *RNG, scale, edgeFactor int) *Graph { return workload.RMAT(rng, scale, edgeFactor) }

// PageRank runs power iterations over g — the computation the
// GraphAnalytics model stands in for.
func PageRank(g *Graph, iters int, damping float64) []float64 {
	return workload.PageRank(g, iters, damping)
}

// MovieLensShaped synthesizes a ratings matrix with MovieLens-like
// popularity skew.
func MovieLensShaped(rng *RNG, users, items, nRatings int) *Ratings {
	return workload.MovieLensShaped(rng, users, items, nRatings)
}

// MiniALS runs simplified alternating-least-squares rounds over r and
// returns the final RMSE — the computation the InMemoryAnalytics model
// stands in for.
func MiniALS(r *Ratings, k, iters int, rng *RNG) float64 {
	return workload.MiniALS(r, k, iters, rng)
}

// Scenario is one registered benchmark scenario: a paper Table II row, an
// extension (scale-<n>, churn) or a user registration.
type Scenario = experiments.Scenario

// Scenarios lists every registered scenario: the paper's four Table II
// rows first, then the scale/churn extensions and user registrations.
func Scenarios() []*Scenario { return experiments.All() }

// PaperScenarios lists only the paper's four scenarios in Table II order.
func PaperScenarios() []*Scenario { return experiments.PaperScenarios() }

// RegisterScenario adds a custom scenario to the registry, making it
// resolvable by slug from RunScenario, ScenarioTimes and the commands.
// Build scenarios with experiments.NewScenario.
func RegisterScenario(s *Scenario) { experiments.Register(s) }

// ScenarioBySlug resolves a registered slug ("s1", "s2", "usemem", "s3",
// "churn") or a parameterized one ("scale-<n>").
func ScenarioBySlug(slug string) (*Scenario, error) { return experiments.BySlug(slug) }

// RunScenario executes one (scenario, policy, seed) combination. The
// policy spec additionally accepts "no-tmem".
func RunScenario(slug, policySpec string, seed uint64) (*Result, error) {
	s, err := experiments.BySlug(slug)
	if err != nil {
		return nil, err
	}
	return experiments.RunOne(s, policySpec, seed)
}

// ExperimentJob is one (scenario, policy, seed) cell of a sweep.
type ExperimentJob = experiments.Job

// ExperimentResult pairs a job with its outcome; results always arrive in
// job order regardless of parallel completion order.
type ExperimentResult = experiments.JobResult

// ExperimentOptions configure parallel sweeps: worker-pool size (default
// runtime.NumCPU()), run cache, cancellation context, and progress and
// event callbacks. Workers take cells longest-expected-first from one
// shared cursor; with one worker, cells run in submission order. Results
// arrive in job order either way.
type ExperimentOptions = experiments.Options

// ErrSkipped marks sweep jobs that never ran because an earlier job failed
// (fail-fast) or the sweep was cancelled; test ExperimentResult.Err with
// errors.Is to tell skipped jobs from failed ones in partial results.
var ErrSkipped = experiments.ErrSkipped

// RunCache memoizes completed runs by fingerprint so repeated sweep cells
// return instantly and byte-identically. Set ExperimentOptions.Cache to
// one; it is safe for concurrent use and survives across sweeps (and, with
// OpenDirRunCache, across processes). A cell is kept as a small scalar
// record plus a separate time-series blob: RunTournament and the times
// tables read the record alone, RunMatrix and RunCache.Get the whole
// result. Damage to either reads as a miss and is recomputed.
type RunCache = experiments.Memo

// RunCacheStats reports a cache's hit/miss/write counters and the bytes
// its lookups read.
type RunCacheStats = experiments.MemoStats

// NewRunCache returns a run cache over any BlobStore (an in-memory store
// for tests, a DirStore for persistence).
func NewRunCache(store BlobStore) *RunCache { return experiments.NewMemo(store) }

// OpenDirRunCache opens (creating if needed) an on-disk run cache rooted
// at dir.
func OpenDirRunCache(dir string) (*RunCache, error) { return experiments.OpenDirMemo(dir) }

// LeagueTable is a tournament's outcome: policies ranked by mean disk
// traffic, overall and per scenario.
type LeagueTable = experiments.LeagueTable

// RunTournament sweeps every scenario × policy × seed cell and ranks the
// policies in a deterministic league table. Nil policies selects the union
// of the scenarios' own policy lists; nil seeds the default five.
func RunTournament(slugs []string, policies []string, seeds []uint64, opt ExperimentOptions) (*LeagueTable, error) {
	scns := make([]*Scenario, len(slugs))
	for i, slug := range slugs {
		s, err := experiments.BySlug(slug)
		if err != nil {
			return nil, err
		}
		scns[i] = s
	}
	return experiments.RunTournament(scns, policies, seeds, opt)
}

// WriteLeagueTable renders a league's overall standings and per-scenario
// breakdowns as fixed-width text.
func WriteLeagueTable(w io.Writer, t *LeagueTable) error {
	if err := experiments.LeagueReport(t).Render(w); err != nil {
		return err
	}
	for _, sl := range t.PerScenario {
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if err := experiments.ScenarioLeagueReport(sl).Render(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteLeagueJSON writes a league table as one deterministic JSON document.
func WriteLeagueJSON(w io.Writer, t *LeagueTable) error { return experiments.WriteLeagueJSON(w, t) }

// WriteLeagueCSV writes a league table as CSV (overall block, then one
// block per scenario).
func WriteLeagueCSV(w io.Writer, t *LeagueTable) error { return experiments.WriteLeagueCSV(w, t) }

// RunMatrix executes every (scenario, policy, seed) combination on a
// worker pool and returns the results in deterministic matrix order
// (scenario-major, then policy, then seed). Nil policies selects each
// scenario's own policy list; nil seeds the default five.
func RunMatrix(slugs []string, policies []string, seeds []uint64, opt ExperimentOptions) ([]ExperimentResult, error) {
	scns := make([]*Scenario, len(slugs))
	for i, slug := range slugs {
		s, err := experiments.BySlug(slug)
		if err != nil {
			return nil, err
		}
		scns[i] = s
	}
	return experiments.RunMatrix(scns, policies, seeds, opt)
}

// ScenarioTimes reruns a scenario across policies and seeds and aggregates
// the per-VM running times (the data behind the paper's Figures 3, 5, 7
// and 9). Nil policies/seeds select the scenario's paper configuration and
// the default five seeds. Runs execute concurrently (one worker per CPU)
// with results identical to a sequential sweep; use ScenarioTimesOpts to
// control parallelism.
func ScenarioTimes(slug string, policies []string, seeds []uint64) (*experiments.TimesTable, error) {
	return ScenarioTimesOpts(slug, policies, seeds, ExperimentOptions{})
}

// ScenarioTimesOpts is ScenarioTimes with explicit execution options.
func ScenarioTimesOpts(slug string, policies []string, seeds []uint64, opt ExperimentOptions) (*experiments.TimesTable, error) {
	s, err := experiments.BySlug(slug)
	if err != nil {
		return nil, err
	}
	return experiments.TimesOpts(s, policies, seeds, opt)
}

// WriteScenarioTimes renders a times table as fixed-width text.
func WriteScenarioTimes(w io.Writer, t *experiments.TimesTable) error {
	return experiments.TimesReport(t).Render(w)
}

// WriteScenarioSeries runs one (scenario, policy, seed) combination and
// renders its tmem-usage-over-time chart (the paper's Figures 4, 6, 8, 10).
func WriteScenarioSeries(w io.Writer, slug, policySpec string, seed uint64) error {
	s, err := experiments.BySlug(slug)
	if err != nil {
		return err
	}
	sr, err := experiments.Series(s, policySpec, seed)
	if err != nil {
		return err
	}
	return experiments.RenderSeries(w, sr)
}
