// Command perfbench is the repository's session benchmark: it plays whole
// bargaining sessions in a closed loop through the public entry points
// (Engine, Server/Client, Settlement and the exported functions of the
// internal layers), checks every session's output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer split — as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload mux-perfect --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload engine-perfect --seed 1 --seconds 10 --repeat 5
//
// Run it from the repository root. NOTES.md records why each workload
// exists, every metric and the per-layer → end-to-end predictions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; session seeds derive from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "N > 0 runs the benchmark N times on seeds seed..seed+N-1 and prints each metric's spread")
	flag.Parse()
	o.trace = traceFlag != 0

	if o.repeat > 0 {
		os.Exit(repeat(o))
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(context.Background(), wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printMeta records what the run's numbers depend on.
func printMeta(wl *workload, o options) {
	meta := map[string]any{
		"workload":   wl.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"callers":    wl.callers,
		"setups":     coldSetups,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest("."),
	}
	b, _ := json.Marshal(meta)
	fmt.Println("meta " + string(b))
}

// sourceDigest identifies the code under test without a version-control
// checkout: a SHA-256 over the path and contents of every Go source and
// module file below root, outside the build directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == buildDir || strings.HasPrefix(d.Name(), ".git")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// buildDir is where run.sh keeps build outputs and where runs keep their
// temporary state; it is ignored by version control.
const buildDir = ".bench_build"

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
