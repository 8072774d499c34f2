// Command smartmem-sim runs one SmarTmem scenario under one policy and
// prints per-VM running times, memory-management statistics and,
// optionally, the tmem-usage chart and CSV series. With -times it instead
// sweeps every (policy, seed) combination of the scenario concurrently and
// prints the aggregated running-times table.
//
// The run executes as a smartmem.Session; -json and -events attach the
// built-in result sinks to its event stream ("-" writes to stdout and
// suppresses the text report).
//
// Usage:
//
//	smartmem-sim -scenario s2 -policy smart-alloc:P=6 -seed 11 -chart
//	smartmem-sim -scenario usemem -policy greedy -csv series.csv
//	smartmem-sim -scenario usemem -policy greedy -json run.json -events -
//	smartmem-sim -scenario scale-12 -times -parallel 8
//
// With -tournament it sweeps policies × scenarios × seeds (comma-separate
// -scenario, -policies and -seeds to widen the bracket) and prints the
// deterministic policy league table; -memo points repeated sweeps at an
// on-disk run cache so already-computed cells return instantly:
//
//	smartmem-sim -tournament -scenario diurnal,leaky,noisy-neighbor -memo .memo
//	smartmem-sim -tournament -scenario s2 -policies greedy,smart-alloc:P=2 \
//	    -seeds 11,23 -league-json league.json -league-csv league.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"smartmem"
	"smartmem/internal/experiments"
	"smartmem/sinks"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: it parses args and writes to the
// given streams instead of touching the process globals.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smartmem-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario  = fs.String("scenario", "s1", "scenario slug: s1, s2, usemem, s3, scale-<n>, churn")
		policy    = fs.String("policy", "greedy", `policy spec: no-tmem, greedy, static-alloc, reconf-static, smart-alloc:P=<pct>`)
		seed      = fs.Uint64("seed", 11, "random seed")
		chart     = fs.Bool("chart", false, "print the tmem-usage chart (paper Figures 4/6/8/10)")
		csvPath   = fs.String("csv", "", "write the tmem time series as CSV to this file")
		jsonPath  = fs.String("json", "", `write the full run (events + result) as one JSON document to this file ("-" = stdout, suppressing the text report)`)
		evPath    = fs.String("events", "", `stream lifecycle events as NDJSON to this file while the run executes ("-" = stdout, suppressing the text report)`)
		list      = fs.Bool("list", false, "list registered scenarios and exit")
		listPol   = fs.Bool("list-policies", false, "list registered policies and exit")
		times     = fs.Bool("times", false, "sweep (policy, seed) combinations and print the times table; uses the scenario's policy list and default seeds unless -policy/-seed are given")
		tourney   = fs.Bool("tournament", false, "sweep policies × scenarios × seeds and print the policy league table; -scenario accepts a comma-separated list")
		policiesF = fs.String("policies", "", "comma-separated policy specs for -tournament (default: the union of the scenarios' own policy lists)")
		seedsF    = fs.String("seeds", "", "comma-separated seeds for -tournament (default: the standard five)")
		memoDir   = fs.String("memo", "", "directory of the on-disk run cache; repeated -times/-tournament cells are recalled instead of resimulated")
		leagueJ   = fs.String("league-json", "", `write the league table as JSON to this file ("-" = stdout, suppressing the text tables)`)
		leagueC   = fs.String("league-csv", "", `write the league table as CSV to this file ("-" = stdout, suppressing the text tables)`)
		parallel  = fs.Int("parallel", runtime.NumCPU(), "concurrent simulation runs for -times/-tournament (1 = sequential)")
		quiet     = fs.Bool("quiet", false, "suppress live progress on stderr")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "smartmem-sim:", err)
		return 1
	}

	if *list {
		if err := experiments.RegistryTable().Render(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *listPol {
		if err := experiments.PolicyTable().Render(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	// Profiling hooks, so tier-stack hot-path work is measurable:
	//
	//	smartmem-sim -scenario kv-heavy -cpuprofile cpu.prof -memprofile mem.prof
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "smartmem-sim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "smartmem-sim: memprofile:", err)
			}
		}()
	}

	// sweepOpts assembles the execution options shared by the -times and
	// -tournament sweeps: pool size, progress output and — when -memo names
	// a directory — the persistent run cache.
	sweepOpts := func() (smartmem.ExperimentOptions, error) {
		opt := smartmem.ExperimentOptions{Parallelism: *parallel}
		if *memoDir != "" {
			cache, err := smartmem.OpenDirRunCache(*memoDir)
			if err != nil {
				return opt, err
			}
			opt.Cache = cache
		}
		if !*quiet {
			opt.OnProgress = func(done, total int, j smartmem.ExperimentJob) {
				fmt.Fprintf(stderr, "\r[%d/%d] %-48s", done, total, j.String())
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
		return opt, nil
	}
	memoStats := func(opt smartmem.ExperimentOptions) {
		if opt.Cache != nil && !*quiet {
			st := opt.Cache.Stats()
			fmt.Fprintf(stderr, "memo: %d hits, %d misses, %d writes, %d corrupt, %d bytes read\n",
				st.Hits, st.Misses, st.Writes, st.Corrupt, st.BytesRead)
		}
	}

	if *tourney {
		slugs := splitList(*scenario)
		pols := splitList(*policiesF)
		seeds, err := parseSeeds(*seedsF)
		if err != nil {
			return fail(err)
		}
		opt, err := sweepOpts()
		if err != nil {
			return fail(err)
		}
		league, err := smartmem.RunTournament(slugs, pols, seeds, opt)
		if err != nil {
			return fail(err)
		}
		textTables := true
		write := func(path string, wr func(io.Writer, *smartmem.LeagueTable) error) error {
			if path == "" {
				return nil
			}
			w := io.Writer(stdout)
			if path == "-" {
				textTables = false
			} else {
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			return wr(w, league)
		}
		if err := write(*leagueJ, smartmem.WriteLeagueJSON); err != nil {
			return fail(err)
		}
		if err := write(*leagueC, smartmem.WriteLeagueCSV); err != nil {
			return fail(err)
		}
		if textTables {
			if err := smartmem.WriteLeagueTable(stdout, league); err != nil {
				return fail(err)
			}
		}
		memoStats(opt)
		return 0
	}

	if *times {
		// Honor -policy / -seed only when the user set them explicitly;
		// otherwise sweep the scenario's own policy list and the default
		// five seeds. The plural -policies/-seeds lists win when given.
		var policies []string
		var seeds []uint64
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policy":
				policies = []string{*policy}
			case "seed":
				seeds = []uint64{*seed}
			}
		})
		if ps := splitList(*policiesF); ps != nil {
			policies = ps
		}
		if *seedsF != "" {
			var err error
			if seeds, err = parseSeeds(*seedsF); err != nil {
				return fail(err)
			}
		}
		opt, err := sweepOpts()
		if err != nil {
			return fail(err)
		}
		tab, err := smartmem.ScenarioTimesOpts(*scenario, policies, seeds, opt)
		if err != nil {
			return fail(err)
		}
		if err := smartmem.WriteScenarioTimes(stdout, tab); err != nil {
			return fail(err)
		}
		memoStats(opt)
		return 0
	}

	// Single-run mode: execute the scenario as a Session so sinks can ride
	// the event stream. Cluster scenarios run as cluster sessions; their
	// events arrive node-tagged and VM names carry node prefixes.
	scn, err := experiments.BySlug(*scenario)
	if err != nil {
		return fail(err)
	}

	textReport := true
	var opts []smartmem.SessionOption
	var toClose []io.Closer
	attach := func(path string, mk func(io.Writer) smartmem.Sink) error {
		if path == "" {
			return nil
		}
		w := io.Writer(stdout)
		if path == "-" {
			textReport = false
		} else {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			toClose = append(toClose, f)
			w = f
		}
		opts = append(opts, smartmem.WithSink(mk(w)))
		return nil
	}
	if err := attach(*evPath, func(w io.Writer) smartmem.Sink { return sinks.NDJSON(w) }); err != nil {
		return fail(err)
	}
	if err := attach(*jsonPath, func(w io.Writer) smartmem.Sink { return sinks.JSON(w) }); err != nil {
		return fail(err)
	}
	defer func() {
		for _, c := range toClose {
			c.Close()
		}
	}()

	var sess *smartmem.Session
	if scn.IsCluster() {
		cc, err := scn.BuildCluster(*seed, *policy)
		if err != nil {
			return fail(err)
		}
		sess, err = smartmem.NewClusterSession(cc, opts...)
		if err != nil {
			return fail(err)
		}
	} else {
		cfg, err := scn.Build(*seed, *policy)
		if err != nil {
			return fail(err)
		}
		sess, err = smartmem.NewSession(cfg, opts...)
		if err != nil {
			return fail(err)
		}
	}
	res, err := sess.Run()
	if err != nil {
		return fail(err)
	}
	if res.HitLimit {
		return fail(fmt.Errorf("%s/%s seed %d hit the virtual-time limit", *scenario, *policy, *seed))
	}

	if textReport {
		fmt.Fprintf(stdout, "scenario %s, policy %s, seed %d — finished at %.1f virtual seconds\n\n",
			*scenario, res.PolicyName, res.Seed, res.EndTime.Seconds())

		fmt.Fprintln(stdout, "runs:")
		for _, r := range res.Runs {
			fmt.Fprintf(stdout, "  %-4s %-16s %8.1fs  (%.1fs → %.1fs)\n",
				r.VM, r.Label, r.Duration().Seconds(), r.Start.Seconds(), r.End.Seconds())
		}

		fmt.Fprintln(stdout, "\nper-VM memory management:")
		for _, vm := range res.VMs {
			k := vm.Kernel
			fmt.Fprintf(stdout, "  %-4s touches=%d evictions=%d putsOK=%d putsFailed=%d tmemHits=%d diskR=%d diskW=%d diskWait=%.1fs\n",
				vm.Name, k.Touches, k.Evictions, k.PutsOK, k.PutsFailed, k.TmemHits,
				k.DiskReads, k.DiskWrites, k.WaitedOnDisk.Seconds())
		}
		fmt.Fprintf(stdout, "\nhost disk: %d ops, %.1fs busy; MM: %d samples, %d target batches sent\n",
			res.DiskOps, res.DiskBusy.Seconds(), res.SampleTicks, res.MMBatchesSent)

		if len(res.Nodes) > 0 {
			fmt.Fprintln(stdout, "\nper-node (remote tier = overflow shipped to the peer's store):")
			for _, n := range res.Nodes {
				line := fmt.Sprintf("  %-4s policy=%s samples=%d diskOps=%d",
					n.Name, n.PolicyName, n.SampleTicks, n.DiskOps)
				if n.Remote != nil {
					line += fmt.Sprintf(" remotePuts=%d/%d remoteHits=%d/%d remoteFlushes=%d",
						n.Remote.PutsOK, n.Remote.Puts, n.Remote.GetsHit, n.Remote.Gets,
						n.Remote.PageFlushes+n.Remote.ObjectFlushes)
				}
				fmt.Fprintln(stdout, line)
			}
		}
	}

	if *chart {
		if !textReport {
			// stdout carries a machine-readable stream; don't corrupt it.
			fmt.Fprintln(stderr, "smartmem-sim: -chart is ignored when -json/-events write to stdout")
		} else {
			fmt.Fprintln(stdout)
			if err := smartmem.WriteScenarioSeries(stdout, *scenario, *policy, *seed); err != nil {
				fmt.Fprintln(stderr, "smartmem-sim: chart:", err)
				return 1
			}
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := res.Series.WriteCSV(f); err != nil {
			return fail(err)
		}
		confirm := stdout
		if !textReport {
			confirm = stderr
		}
		fmt.Fprintf(confirm, "series written to %s\n", *csvPath)
	}
	return 0
}

// splitList splits a comma-separated flag value, trimming spaces and
// dropping empty elements; an empty value yields nil.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseSeeds parses a comma-separated -seeds value; empty yields nil (the
// defaults).
func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
