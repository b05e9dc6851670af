package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// tailPermille lists the tail percentiles the reporting rule may pick, in
// thousandths, highest first.
var tailPermille = []int{999, 990, 900, 500}

// dist summarizes a latency sample by the benchmark's percentile rule: the
// median, the 99th percentile the metric names carry, and the highest
// percentile with at least ten samples beyond it, with the sample count.
type dist struct {
	n         int
	p50, p99  float64
	tailPerml int // 0 when fewer than 20 samples exist
	tail      float64
}

// rankOf returns the 1-based nearest rank of the permille quantile in n
// sorted samples: ceil(q·n/1000), at least 1.
func rankOf(n, permille int) int {
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailFor returns the highest tail percentile (in permille) with at least
// ten of n samples beyond it, or 0 if none qualifies.
func tailFor(n int) int {
	for _, q := range tailPermille {
		if n-rankOf(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// summarize sorts ms in place and applies the percentile rule.
func summarize(ms []float64) dist {
	sort.Float64s(ms)
	d := dist{n: len(ms)}
	if d.n == 0 {
		return d
	}
	at := func(permille int) float64 { return ms[rankOf(d.n, permille)-1] }
	d.p50, d.p99 = at(500), at(990)
	if d.tailPerml = tailFor(d.n); d.tailPerml > 0 {
		d.tail = at(d.tailPerml)
	}
	return d
}

func (d dist) String() string {
	s := fmt.Sprintf("p50=%.4f p99=%.4f n=%d", d.p50, d.p99, d.n)
	if d.tailPerml > 0 {
		s += fmt.Sprintf(" (p%g=%.4f with >=10 beyond)", float64(d.tailPerml)/10, d.tail)
	}
	return s
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
