// Command pmcast-perfbench is the repository's benchmark: it runs one
// workload against pmcast's internal packages, checks the outputs, and
// prints every metric with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 a separate traced pass (CPU profile plus spans) reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outcome is what a workload run produced.
type outcome struct {
	metrics   map[string]float64
	attempted int64 // eligible (event, node) pairs
	failed    int64 // eligible pairs never delivered
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runner runs one workload for about the given wall time. traced selects
// the per-layer pass.
type runner func(seed int64, seconds time.Duration, traced bool, log io.Writer) (*outcome, error)

var runners = map[string]runner{
	"stream256": func(s int64, d time.Duration, t bool, w io.Writer) (*outcome, error) {
		return runVirtual(stream256, s, d, t, w)
	},
	"flux256": func(s int64, d time.Duration, t bool, w io.Writer) (*outcome, error) {
		return runVirtual(flux256, s, d, t, w)
	},
	"loopback16": runLoopback,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmcast-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: stream256, flux256 or loopback16")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r, ok := runners[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: --workload {stream256|flux256|loopback16} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d gomaxprocs %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	o, err := r(*seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "peak_rss_mib %.1f\n", peakRSSMiB())
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := report(o, defs, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

// report prints one line per metric and returns the JSON result line.
func report(o *outcome, defs []metricDef, w io.Writer) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "metric %-38s %14.6f %s\n", d.name, v, d.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, metrics})
}
