package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// warmup is how long sessions run before the timed window, so lazy
// set-up and the reference caches of the output check fill first.
const warmup = time.Second

// coldSetups is how many times a run sets the workload up from nothing;
// setup_s is their median, since one cold start under a second does not
// repeat.
const coldSetups = 7

// run sets the workload up coldSetups times, keeps the last set-up, and
// plays its closed loop: untraced for the end-to-end metrics, or traced
// for the per-layer split.
func run(ctx context.Context, wl *workload, o options) (*report, error) {
	printMeta(wl, o)
	root, err := newStateRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var setups []setupTimes
	var r *rig
	for i := 0; i < coldSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		rr, st, err := build(ctx, wl, stateDirFor(root, i), o.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		st.total = time.Since(t0)
		setups = append(setups, st)
		if i < coldSetups-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()
	printSetups(setups)

	seq := newSeedSeq(o.seed, wl.pool)
	warm := runPhase(ctx, wl, seq, warmup, r.play, r)
	dur := time.Duration(o.seconds * float64(time.Second))

	rep := &report{Metrics: map[string]metric{}}
	var phases []*phase
	if o.trace {
		lr, err := traced(ctx, r, seq, dur, setups, o, rep.Metrics)
		if err != nil {
			return nil, err
		}
		phases = lr.phases
		rep.Attempted, rep.Failed = lr.attempted, lr.failed
	} else {
		ph := runPhase(ctx, wl, seq, dur, r.play, r)
		phases = []*phase{ph}
		endToEnd(ph, setups, rep.Metrics)
	}
	rep.Attempted += warm.attempted
	rep.Failed += warm.failed
	for _, ph := range phases {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
	}
	rep.Correct = rep.Failed == 0
	if !o.trace {
		rep.Metrics["ok_ratio"] = metric{float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"}
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the market sees; ok_ratio is added
// by the caller once every check has run.
func endToEnd(ph *phase, setups []setupTimes, m map[string]metric) {
	var total []float64
	for _, s := range setups {
		total = append(total, secs(s.total))
	}
	m["setup_s"] = metric{median(total), "s"}
	m["sessions_per_s"] = metric{ph.quietMedian(ph.rates), "1/s"}
	m["session_p50_ms"] = metric{ph.quietLatency(0.5), "ms"}
	m["session_p90_ms"] = metric{ph.quietLatency(0.9), "ms"}
	m["cpu_ms_per_session"] = metric{ph.quietMedian(ph.cpuMS), "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	all := ph.sessions()
	n := len(all)
	fmt.Printf("diag sessions=%d slices=%d quiet=%d p99_ms=%.4f (n=%d, %d beyond; not gated)\n",
		n, len(ph.rates), len(ph.quiet()), quantile(all, 0.99), n, n/100)
	fmt.Printf("diag slice_rates=%.1f\n", ph.rates)
	fmt.Printf("diag slice_cpu_ms=%.3f\n", ph.cpuMS)
	fmt.Printf("diag slice_steal=%.3f\n", ph.steal)
}

// printSetups shows every set-up's split; setup_s is the median total.
func printSetups(setups []setupTimes) {
	for i, s := range setups {
		fmt.Printf("setup %d total=%.4fs engine=%.4fs server=%.4fs keygen=%.4fs dial=%.2fms\n",
			i, secs(s.total), secs(s.engine), secs(s.server), secs(s.keygen), secs(s.dial)*1e3)
	}
}
