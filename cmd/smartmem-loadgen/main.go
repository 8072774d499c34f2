// Command smartmem-loadgen is the open-loop load generator for
// smartmem-kvd: it drives the KV wire protocol over real sockets at a
// *target* op rate — the schedule of intended send times is fixed up
// front by the arrival process, and a slow server does not slow the
// generator down, it just accumulates latency. Every latency sample is
// measured from the op's intended send time, so queueing delay that a
// closed-loop benchmark would silently absorb (coordinated omission) is
// charged to the ops that suffered it. This is the harness every wire-rate
// claim in this repo is judged by.
//
// Requests are pipelined per connection (writer paced by the schedule,
// reader matching in-order responses) and latencies recorded into
// internal/hdr histograms: lock-free, 0 allocs per record, merged across
// connections at the end.
//
// Examples:
//
//	smartmem-loadgen -addr :7077 -conns 8 -rate 50000 -duration 30s
//	smartmem-loadgen -addr :7077 -mix put=10,get=90 -skew 1.2 -arrival poisson
//	smartmem-loadgen -inprocess -rate 20000 -duration 5s -json -
//
// -json writes the full report, which cmd/smartmem-benchgate can hold
// against a minimum throughput and a p99 ceiling (the CI loadgen smoke).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"smartmem/internal/durable"
	"smartmem/sinks"
)

func main() {
	var (
		addr        = flag.String("addr", "", "address of the smartmem-kvd to drive")
		conns       = flag.Int("conns", 4, "concurrent connections")
		rate        = flag.Float64("rate", 10000, "target op rate per second, total across connections")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		mixSpec     = flag.String("mix", "put=45,get=45,flush=10", "operation mix weights")
		keys        = flag.Int("keys", 1<<16, "key-space size in pages")
		skew        = flag.Float64("skew", 0, "zipf skew parameter s (> 1 enables zipf; otherwise uniform)")
		arrival     = flag.String("arrival", ArrivalFixed, "arrival process: fixed or poisson")
		pageSize    = flag.Int("pagesize", 4096, "page size; must match the daemon")
		seed        = flag.Int64("seed", 1, "rng seed for mix and key draws")
		outstanding = flag.Int("outstanding", 4096, "per-connection pipeline depth bound")
		jsonOut     = flag.String("json", "", "write the full JSON report to this file (- for stdout)")
		inprocess   = flag.Bool("inprocess", false, "serve an in-process loopback store instead of dialing -addr (self-contained smoke)")
		inprocPages = flag.Int64("inprocess-pages", 1<<17, "store capacity in pages for -inprocess")
		inprocShard = flag.Int("inprocess-shards", 0, "store shards for -inprocess; 0 means GOMAXPROCS")
		durDir      = flag.String("durable", "", "with -inprocess: journal the store through a WAL under this directory (smartmem-kvd -durable equivalent)")
		fsyncStr    = flag.String("fsync", "interval", "durable commit policy for -durable: always, interval or off")
		quiet       = flag.Bool("quiet", false, "suppress the human-readable summary")
	)
	flag.Parse()

	mix, err := ParseMix(*mixSpec)
	fatalIf(err)
	cfg := Config{
		Addr:        *addr,
		Conns:       *conns,
		Rate:        *rate,
		Duration:    *duration,
		Mix:         mix,
		Keys:        *keys,
		Skew:        *skew,
		Arrival:     *arrival,
		PageSize:    *pageSize,
		Seed:        *seed,
		Outstanding: *outstanding,
	}
	if *inprocess {
		shards := *inprocShard
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		var inAddr string
		var stop func()
		if *durDir != "" {
			fp, ferr := durable.ParseFsync(*fsyncStr)
			fatalIf(ferr)
			inAddr, stop, err = StartInprocessDurable(*inprocPages, shards, *pageSize, *durDir, fp)
		} else {
			inAddr, stop, err = StartInprocess(*inprocPages, shards, *pageSize)
		}
		fatalIf(err)
		defer stop()
		cfg.Addr = inAddr
	} else if cfg.Addr == "" {
		fmt.Fprintln(os.Stderr, "smartmem-loadgen: -addr or -inprocess is required")
		os.Exit(2)
	} else if *durDir != "" {
		fmt.Fprintln(os.Stderr, "smartmem-loadgen: -durable requires -inprocess (the daemon owns durability when dialing -addr)")
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if !*quiet {
		fmt.Fprintf(os.Stderr, "smartmem-loadgen: %d conns -> %s, target %.0f op/s (%s arrivals), mix %s, keys %d skew %g, %v\n",
			cfg.Conns, cfg.Addr, cfg.Rate, cfg.Arrival, cfg.Mix, cfg.Keys, cfg.Skew, cfg.Duration)
	}
	res, err := Run(ctx, cfg)
	fatalIf(err)

	if !*quiet {
		printSummary(res)
	}
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			fatalIf(err)
			defer f.Close()
			out = f
		}
		fatalIf(writeReport(out, res))
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// opOrder lists histogram keys in report order, "all" last.
func opOrder(res *Result) []string {
	ops := make([]string, 0, len(res.Ops))
	for name, h := range res.Ops {
		if name != "all" && h.Count() > 0 {
			ops = append(ops, name)
		}
	}
	sort.Strings(ops)
	return append(ops, "all")
}

func printSummary(res *Result) {
	fmt.Fprintf(os.Stderr, "smartmem-loadgen: sent %d completed %d errors %d rejects %d in %.2fs (achieved %.0f op/s of %.0f targeted)\n",
		res.Sent, res.Complete, res.Errors, res.Rejects, res.Elapsed.Seconds(), res.AchievedRate(), res.Config.Rate)
	fmt.Fprintf(os.Stderr, "  %-6s %10s %12s %12s %12s %12s\n", "op", "count", "p50", "p99", "p999", "max")
	for _, name := range opOrder(res) {
		s := res.Ops[name].Snapshot()
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-6s %10d %12v %12v %12v %12v\n",
			name, s.Count, time.Duration(s.P50), time.Duration(s.P99), time.Duration(s.P999), time.Duration(s.Max))
	}
}

// writeReport emits the full JSON report: config echo, transport totals
// and per-op latency summaries (sinks.EncodeHistogram shape).
func writeReport(w *os.File, res *Result) error {
	ops := make(map[string]any, len(res.Ops))
	for name, h := range res.Ops {
		if h.Count() > 0 {
			ops[name] = sinks.EncodeHistogram(h.Snapshot())
		}
	}
	doc := map[string]any{
		"loadgen": map[string]any{
			"addr":          res.Config.Addr,
			"conns":         res.Config.Conns,
			"target_rate":   res.Config.Rate,
			"achieved_rate": res.AchievedRate(),
			"duration_s":    res.Elapsed.Seconds(),
			"arrival":       res.Config.Arrival,
			"mix":           res.Config.Mix.String(),
			"keys":          res.Config.Keys,
			"skew":          res.Config.Skew,
			"sent":          res.Sent,
			"completed":     res.Complete,
			"errors":        res.Errors,
			"rejects":       res.Rejects,
			"ops":           ops,
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smartmem-loadgen:", err)
		os.Exit(1)
	}
}
