package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeat runs the benchmark o.repeat times, one process per run on seeds
// o.seed, o.seed+1, …, and prints each metric's median, quartiles and
// largest relative deviation from the median, so bounds can be set from
// data. Quartiles follow Python's statistics.quantiles(n=4).
func repeat(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rep report
		if jerr := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d failed: %v %v\n", seed, err, jerr)
			status = 1
			continue
		}
		fmt.Printf("run seed=%d correct=%v attempted=%d failed=%d\n", seed, rep.Correct, rep.Attempted, rep.Failed)
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	var names []string
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %9s %9s  n\n", "metric", "median", "q1", "q3", "iqr/med", "maxdev")
	for _, n := range names {
		xs := values[n]
		med := median(xs)
		q1, q3 := pyQuartiles(xs)
		var dev float64
		for _, x := range xs {
			dev = math.Max(dev, math.Abs(x-med))
		}
		rel := func(v float64) float64 {
			if med == 0 {
				return 0
			}
			return v / math.Abs(med)
		}
		fmt.Printf("%-36s %12.5g %12.5g %12.5g %9.4f %9.4f  %d %s\n", n, med, q1, q3, rel(q3-q1), rel(dev), len(xs), units[n])
	}
	return status
}

// pyQuartiles is statistics.quantiles(xs, n=4) with the default
// exclusive method; it returns the first and third quartiles.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
