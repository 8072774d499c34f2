package main

import (
	"fmt"
	"time"
)

// A serve workload's Phase A rate and latency limit are frozen in params.go
// by this rule:
//
//	openRate: the rate at which the server's CPU is openRateBusy busy
//	limit:    limitOverP99 × the whole-run p99 at openRate
//
// The server's CPU is the one Phase A gives the server and the readers (see
// splitCPUs); its busy share is read from the kernel over the phase. At that
// utilisation requests queue often enough for the latency to follow service
// time, and the backlog a stall leaves still drains. The rate is not a share
// of the throughput the server saturates at: the wire layer handles more
// frames per system call the longer its queue is, so throughput keeps
// rising long after the CPU is fully busy and latency has left the scale
// (README.md, "Calibration").
const (
	openRateBusy = 0.6
	limitOverP99 = 5
)

// calibrationRungs are the rates tried, as multiples of the frozen rate.
var calibrationRungs = []float64{0.5, 0.75, 1, 1.25, 1.5, 2}

// calibrate plays Phase A at each rung and prints what the rule above needs.
// The constants are right while the rung at ×1 reads about openRateBusy and
// the frozen limit about limitOverP99 × its p99. It is run by hand
// (--calibrate) when the constants are set or doubted, never as part of a
// measurement; README.md records the runs the present constants come from.
func calibrate(spec serveSpec, seed uint64, seconds float64, scratch string) error {
	bodies := newPageBodies(seed)
	run, err := setUp(spec, scratch, nil, bodies)
	if err != nil {
		return err
	}
	defer func() {
		run.closeConns()
		run.stack.close()
	}()
	span := time.Duration(seconds / float64(len(calibrationRungs)) * float64(time.Second))
	fmt.Printf("%s seed %d: frozen rate %.0f frames/s, limit %v; %v per rung\n", spec.name, seed, spec.openRate, spec.limit, span)
	for _, m := range calibrationRungs {
		rate := m * spec.openRate
		open := runOpenLoop(run.conns, buildSchedule(spec.mix, seed, rate, span, run.conns), span, spec.window, bodies)
		ws := open.windows.Reduce(spec.tailQ, int64(spec.limit))
		fmt.Printf("  x%.2f = %6.0f frames/s: server CPU %.2f busy; p50 %.1f us (quiet level); whole-run p99 %.1f us (x%d = %.1f ms), p99.9 %.1f us; %d of %d windows stalled; lateness p50 %.1f us, p99 %.1f us\n",
			m, rate, open.serverBusy, ws.P50/1e3, float64(ws.P99)/1e3, limitOverP99, limitOverP99*float64(ws.P99)/1e6, float64(ws.P999)/1e3,
			ws.Stalls, ws.Windows, float64(quantile(open.lateness, 0.5))/1e3, float64(quantile(open.lateness, 0.99))/1e3)
	}
	if t := run.tally(); t.failed > 0 {
		return fmt.Errorf("benchmark: calibrate: %d of %d frames failed (%v)", t.failed, t.frames, t.err)
	}
	return nil
}
