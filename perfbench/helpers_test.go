package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p50, p99  float64
		tailPerml int
		tail      float64
	}{
		{n: 1000, p50: 500, p99: 990, tailPerml: 990, tail: 990},
		{n: 999, p50: 500, p99: 990, tailPerml: 900, tail: 900},
		{n: 20000, p50: 10000, p99: 19800, tailPerml: 999, tail: 19980},
		{n: 20, p50: 10, p99: 20, tailPerml: 500, tail: 10},
		{n: 19, p50: 10, p99: 19, tailPerml: 0},
		{n: 1, p50: 1, p99: 1, tailPerml: 0},
	} {
		d := summarize(seq(tc.n))
		if d.n != tc.n || d.p50 != tc.p50 || d.p99 != tc.p99 || d.tailPerml != tc.tailPerml || d.tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v p99 %v tail p%d=%v", tc.n, d, tc.p50, tc.p99, tc.tailPerml, tc.tail)
		}
		if d.tailPerml > 0 && d.n-rankOf(d.n, d.tailPerml) < 10 {
			t.Errorf("n=%d: tail p%d has fewer than 10 samples beyond it", tc.n, d.tailPerml)
		}
	}
	if d := summarize(nil); d.n != 0 || d.tailPerml != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

func TestAttribution(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"pmcast/internal/core.(*Process).TickRound"}, "core"},
		// Runtime work done on a module's behalf counts for the module.
		{[]string{"runtime.memmove", "runtime.growslice", "pmcast/internal/wire.AppendBatch",
			"pmcast/internal/node.(*Node).send"}, "wire"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "pmcast/internal/binenc.(*Interner).Intern",
			"pmcast/internal/wire.(*Decoder).Decode"}, "binenc"},
		{[]string{"syscall.Syscall6", "pmcast/internal/transport/udp.(*endpoint).write",
			"pmcast/internal/transport/udp.(*endpoint).Send", "main.(*tracedEndpoint).Send"}, "udp"},
		{[]string{"pmcast/internal/transport.(*Network).route"}, "transport"},
		{[]string{"pmcast/internal/interest.(*CompiledMatcher).Match[...]"}, "interest"},
		{[]string{"main.runLoopback.func1", "runtime.goexit"}, "bench"},
		{[]string{"pmcast/perfbench.summarize"}, "bench"},
		{[]string{"pmcast/internal/fec.(*Encoder).Add"}, "pmcast.other"},
		{[]string{"pmcast.(*Node).Publish"}, "pmcast.other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{nil, "runtime.other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	shares := sharesOf([]stack{
		{funcs: []string{"runtime.mapaccess2", "pmcast/internal/core.(*Process).rate", tickRoundFrame}, count: 3},
		{funcs: []string{"pmcast/internal/tree.(*Tree).fold"}, count: 1},
	})
	if shares.samples != 4 || shares.share["core"] != 0.75 || shares.share["tree"] != 0.25 || shares.tickRound != 0.75 {
		t.Errorf("sharesOf = %+v", shares)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileDecode profiles this package's own busy loop and checks the
// decoder attributes it to the benchmark.
func TestProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s := sharesOf(stacks)
	if s.samples < 5 {
		t.Skipf("only %d samples", s.samples)
	}
	if s.samples > 100 { // 300 ms at the default 100 Hz is about 30
		t.Errorf("%d samples in 300 ms: sample values misread", s.samples)
	}
	if s.share[bucketBench] < 0.5 {
		t.Errorf("busy loop attributed %.2f to the benchmark, shares %v", s.share[bucketBench], s.share)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	const rate, window = 800.0, 5 * time.Second
	a := poissonSchedule(7, rate, window, 4)
	b := poissonSchedule(7, rate, window, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if c := poissonSchedule(8, rate, window, 4); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	want := rate * window.Seconds()
	if got := float64(len(a)); got < want*0.95 || got > want*1.05 {
		t.Errorf("%v arrivals, want about %v", got, want)
	}
	perPub := make([]int, 4)
	for i, x := range a {
		if x.at < 0 || x.at >= window || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, x.at)
		}
		perPub[x.pub]++
	}
	for p, n := range perPub {
		if n < len(a)/5 {
			t.Errorf("publisher %d got %d of %d arrivals", p, n, len(a))
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and the names the
// benchmark prints in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(runners) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(runners))
	}
	for _, w := range spec.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: json %+v, benchmark %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestReportPrintsEveryMetric checks the result line carries exactly the
// declared metrics with their units and refuses a missing one.
func TestReportPrintsEveryMetric(t *testing.T) {
	o := &outcome{metrics: map[string]float64{}, attempted: 10, failed: 1}
	for i, d := range endToEnd {
		o.metrics[d.name] = float64(i) + 0.5
	}
	var log bytes.Buffer
	line, err := report(o, endToEnd, &log)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for i, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Value != float64(i)+0.5 || m.Unit != d.unit {
			t.Errorf("%s: %+v", d.name, m)
		}
	}
	delete(o.metrics, "setup_s")
	if _, err := report(o, endToEnd, &log); err == nil {
		t.Error("a missing metric was not refused")
	}
	o.metrics["setup_s"] = 1
	o.fail("duplicate delivery")
	line, err = report(o, endToEnd, &log)
	if err != nil || json.Unmarshal(line, &res) != nil || res.Correct {
		t.Errorf("a failed check still reads correct: %s %v", line, err)
	}
}

// TestLoopbackSmoke runs a short traced load on a real loopback fleet: the
// consumers, spans and checks of loopback16 at a tenth of its rate.
func TestLoopbackSmoke(t *testing.T) {
	spans := &spanLog{}
	f, _, err := timedBuild(1, spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	f.start()
	const window = 500 * time.Millisecond
	o := &outcome{metrics: map[string]float64{}}
	ph := measureLoad(f, poissonSchedule(1, loopRate/10, window, loopPublishers), window, spans, o)
	if len(o.problems) > 0 {
		t.Fatalf("checks failed: %v", o.problems)
	}
	want := ph.published * int64(len(f.nodes))
	if ph.published == 0 || ph.delivered < want*99/100 {
		t.Fatalf("%d of %d pairs delivered", ph.delivered, want)
	}
	if ph.lat.n != int(ph.delivered) || ph.publishUs <= 0 || len(ph.profile) == 0 {
		t.Fatalf("phase %+v", ph)
	}
	if st := spans.stats(); st["udp.send"] == nil && st["udp.send_many"] == nil {
		t.Fatal("no send spans recorded")
	}
}
