package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one played session, kept until it is checked.
type outcome struct {
	seed uint64
	lat  time.Duration
	res  any
	err  error
}

// playFunc plays one session for a caller; idx is the session's index in
// the run.
type playFunc func(ctx context.Context, caller int, idx int64, seed uint64) (any, error)

// phase is the record of one closed-loop timed window, slice by slice.
// Every time metric is taken over the quiet half of the slices (see
// quiet), so interference on the host that hits part of a run does not
// move the figure.
type phase struct {
	latMS     [][]float64 // session latencies of each slice
	rates     []float64   // sessions/s of each slice
	cpuMS     []float64   // process CPU ms per session of each slice
	steal     []float64   // share of vCPU time the hypervisor took in each slice
	attempted int
	failed    int
}

// quietSteal is the share of vCPU time stolen by the hypervisor below
// which a slice counts as quiet whatever its rank: about one /proc/stat
// tick in the shortest slice.
const quietSteal = 0.03

// quiet returns the slices the time metrics are taken over: the half in
// which the hypervisor stole the least vCPU time, and every other slice
// that lost less than quietSteal. On a shared host, steal is the dominant
// noise: a slice that loses a quarter of its vCPU time runs a quarter
// slower or worse, and such periods last longer than a slice. Ranking
// slices within one run keeps the program's own load the same across the
// slices compared; on a quiet host every slice counts.
func (ph *phase) quiet() []int {
	idx := make([]int, len(ph.steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ph.steal[idx[a]] < ph.steal[idx[b]] })
	n := (len(idx) + 1) / 2
	for n < len(idx) && ph.steal[idx[n]] < quietSteal {
		n++
	}
	return idx[:n]
}

// quietMedian is the median of a per-slice series over the quiet slices.
func (ph *phase) quietMedian(xs []float64) float64 {
	var q []float64
	for _, i := range ph.quiet() {
		q = append(q, xs[i])
	}
	return median(q)
}

// quietLatency is the q-quantile of the session latencies of the quiet
// slices, pooled.
func (ph *phase) quietLatency(q float64) float64 {
	var lat []float64
	for _, i := range ph.quiet() {
		lat = append(lat, ph.latMS[i]...)
	}
	return quantile(lat, q)
}

// sessions returns every session latency of the phase.
func (ph *phase) sessions() []float64 {
	var lat []float64
	for _, l := range ph.latMS {
		lat = append(lat, l...)
	}
	return lat
}

// seedSeq hands out session indices and their seeds. Seeds cycle through
// a pool derived from the run seed, so the same run seed gives the same
// sessions in the same order.
type seedSeq struct {
	next  atomic.Int64
	seeds []uint64
}

func newSeedSeq(runSeed uint64, pool int) *seedSeq {
	s := &seedSeq{seeds: make([]uint64, pool)}
	for i := range s.seeds {
		s.seeds[i] = sessionSeed(runSeed, uint64(i))
	}
	return s
}

func (s *seedSeq) take() (int64, uint64) {
	i := s.next.Add(1) - 1
	return i, s.seeds[i%int64(len(s.seeds))]
}

// checker verifies session outputs outside the timed window. prefetch
// computes the references of a slice's seeds in one batch first.
type checker interface {
	prefetch(ctx context.Context, seeds []uint64) error
	check(ctx context.Context, seed uint64, out any) error
}

// runPhase plays the workload's closed loop for dur, cut into slices of
// wl.slice. Callers stop starting sessions at a slice's end; the slice's
// outcomes are then checked and released, and the heap collected, all
// outside the timed window, so every slice starts from the same state.
func runPhase(ctx context.Context, wl *workload, seq *seedSeq, dur time.Duration, play playFunc, c checker) *phase {
	ph := &phase{}
	for left := dur; left > 0; left -= wl.slice {
		st0, w0 := stealTicks(), time.Now()
		outs, rate, cpuMS := runSlice(ctx, wl.callers, min(wl.slice, left), seq, play)
		steal := float64(stealTicks()-st0) / userHZ / (time.Since(w0).Seconds() * float64(runtime.NumCPU()))
		if len(outs) == 0 {
			continue
		}
		var lat []float64
		seeds := make([]uint64, 0, len(outs))
		for _, o := range outs {
			lat = append(lat, float64(o.lat)/float64(time.Millisecond))
			seeds = append(seeds, o.seed)
		}
		ph.steal = append(ph.steal, steal)
		ph.rates = append(ph.rates, rate)
		ph.cpuMS = append(ph.cpuMS, cpuMS/float64(len(outs)))
		ph.latMS = append(ph.latMS, lat)
		perr := c.prefetch(ctx, seeds)
		for _, o := range outs {
			ph.attempted++
			err := o.err
			if err == nil {
				err = perr
			}
			if err == nil {
				err = c.check(ctx, o.seed, o.res)
			}
			if err != nil {
				ph.failed++
				if ph.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: session seed %d: %v\n", o.seed, err)
				}
			}
		}
		outs = nil
		runtime.GC()
	}
	return ph
}

// runSlice runs the closed loop for one slice. Its rate is the sum over
// callers of sessions completed divided by the caller's busy span, so a
// caller idling after its last session does not bias the slice.
func runSlice(ctx context.Context, callers int, d time.Duration, seq *seedSeq, play playFunc) (outs []outcome, rate, cpuMS float64) {
	per := make([][]outcome, callers)
	spans := make([]time.Duration, callers)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx, seed := seq.take()
				t0 := time.Now()
				res, err := play(ctx, c, idx, seed)
				t1 := time.Now()
				per[c] = append(per[c], outcome{seed: seed, lat: t1.Sub(t0), res: res, err: err})
				spans[c] = t1.Sub(start)
			}
		}()
	}
	wg.Wait()
	cpuMS = float64(cpuTime()-cpu0) / float64(time.Millisecond)
	for c := range per {
		outs = append(outs, per[c]...)
		if spans[c] > 0 {
			rate += float64(len(per[c])) / spans[c].Seconds()
		}
	}
	return outs, rate, cpuMS
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the tick rate of /proc/stat's time columns.
const userHZ = 100

// stealTicks reads the machine's cumulative steal time, in USER_HZ ticks,
// from /proc/stat; 0 where it is not available.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rtSample reads the runtime metrics the traced run turns into per-layer
// figures.
type rtSample struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
	sched                              *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSample
	for _, s := range ss {
		switch s.Name {
		case rtNames[0]:
			r.allocObjects = s.Value.Uint64()
		case rtNames[1]:
			r.allocBytes = s.Value.Uint64()
		case rtNames[2]:
			r.gcCycles = s.Value.Uint64()
		case rtNames[3]:
			r.gcCPU = s.Value.Float64()
		case rtNames[4]:
			r.totalCPU = s.Value.Float64()
		case rtNames[5]:
			r.sched = s.Value.Float64Histogram()
		}
	}
	return r
}

// histQuantile returns the q-quantile of the difference of two snapshots
// of one runtime histogram, as the upper edge of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range d {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc >= want {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
