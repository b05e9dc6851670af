package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"pmcast/internal/event"
	"pmcast/internal/harness"
)

// The virtual-time workloads run a harness scenario on the serial engine
// (one shard) and the in-memory fabric. Their latency, reliability and
// message counts are exact for a seed; only CPU and wall time vary.

// virtualDef builds a workload's scenario from the seed. runSeed, when
// non-zero, fixes the harness seed (faults, picks, node RNGs); otherwise the
// workload seed is the harness seed.
type virtualDef struct {
	name    string
	build   func(seed int64) harness.Scenario
	runSeed int64
}

var (
	stream256 = virtualDef{name: "stream256", build: buildStream256}
	flux256   = virtualDef{name: "flux256", build: buildFlux256, runSeed: fluxUniverse}
)

// heapLimit caps the heap of a scenario run. The harness suspends periodic
// collection during a run and collects only near its memory limit, which
// by default lets a run grow to gigabytes; this keeps the benchmark small.
const heapLimit = 512 << 20

// setupReps is how many extra set-ups a run times besides its measured
// iterations; setup_s is the median of all of them.
const setupReps = 9

// buildStream256 is harness.Soak256 without its crash, flux and rejoin ops:
// eight fixed publishers stream 2 events every 20 ms for 2 s over 256 nodes
// at 2% loss. Each publisher's stream is shifted by a seeded phase below
// the 2 ms stagger, so seeds differ in timing as well as in fault draws.
func buildStream256(seed int64) harness.Scenario {
	s := harness.Soak256()
	s.Name = "stream256"
	rng := rand.New(rand.NewSource(seed))
	phase := map[int]time.Duration{}
	kept := s.Ops[:0]
	for _, op := range s.Ops {
		if op.Kind != harness.OpPublish {
			continue
		}
		ph, ok := phase[op.Node]
		if !ok {
			ph = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			phase[op.Node] = ph
		}
		op.At += ph
		kept = append(kept, op)
	}
	s.Ops = kept
	return s
}

// buildFlux256 puts subscription writes beside event reads: 256 nodes with
// Zipf(α=1) interests over 512 topics, a 32-node flux wave every 300 ms, a
// crash wave of 16 at 1 s and a rejoin of 16 at 1.8 s, under 0.5% loss and
// 0.5–2 ms link delay, while one stream publishes 2 events every 20 ms.
//
// Only the stream's phase, within a fifth of a gossip round, comes from the
// seed. The topic universe, the
// Zipf-stratified topic sequence and the harness seed (faults, publishers,
// victims, flux redraws) are fixed: each of them changes the audience
// sizes, and with them the work per delivery and which depth most
// deliveries land at, far more than a code change would. The latency
// distribution here is modal, one mode per tree depth, so a reseeded run
// moves the median from one mode to the next.
func buildFlux256(seed int64) harness.Scenario {
	zw := harness.NewZipfWorkload(harness.ZipfWorkload{
		Topics: 512, Alpha: 1, MeanSubs: 16, MaxSubs: 128, Locality: 0.8, Arity: 4, Seed: fluxUniverse,
	})
	s := harness.Scenario{
		Name: "flux256",
		Fleet: harness.Fleet{
			Arity: 4, Depth: 4,
			R: 2, F: 4, C: 3,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 100 * time.Millisecond,
			SuspectAfter:       600 * time.Millisecond,
			Classes:            zw.Topics,
			MeasureWire:        true,
		},
		Nodes:           256,
		Bootstrap:       harness.BootstrapOracle,
		Loss:            0.005,
		MinDelay:        500 * time.Microsecond,
		MaxDelay:        2 * time.Millisecond,
		QueueLen:        2048,
		Horizon:         3 * time.Second,
		SubscriptionFor: zw.SubscriptionFor,
		FluxFor:         zw.FluxFor,
		EventFor:        zw.EventFor,
	}
	rng := rand.New(rand.NewSource(seed))
	start := 200*time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
	k := 0
	for at := start; at < 2600*time.Millisecond; at += 20 * time.Millisecond {
		for i := 0; i < 2; i++ {
			// An odd stride visits every class once per 512 events; EventFor
			// maps evenly spread classes to Zipf-distributed topics.
			s.PublishAt(at, -1, 1, int64(k*fluxClassStride%zw.Topics))
			k++
		}
	}
	for at := 300 * time.Millisecond; at < s.Horizon; at += 300 * time.Millisecond {
		s.FluxAt(at, 32)
	}
	s.CrashAt(time.Second, 16).RejoinAt(1800*time.Millisecond, 16)
	return s
}

// fluxUniverse salts flux256's fixed Zipf topic universe; fluxClassStride
// orders its published classes.
const (
	fluxUniverse    = 1
	fluxClassStride = 317
)

// firstPublish is the virtual offset of a scenario's first publish.
func firstPublish(sc harness.Scenario) (time.Duration, error) {
	first := time.Duration(-1)
	for _, op := range sc.Ops {
		if op.Kind == harness.OpPublish && (first < 0 || op.At < first) {
			first = op.At
		}
	}
	if first < 0 {
		return 0, fmt.Errorf("scenario %s publishes nothing", sc.Name)
	}
	return first, nil
}

// setupOnly truncates a scenario at its first publish: running it times
// the fleet build and the idle rounds before load starts.
func setupOnly(sc harness.Scenario, first time.Duration) harness.Scenario {
	s := sc
	s.Horizon = first
	s.Ops = nil
	for _, op := range sc.Ops {
		if op.At <= first {
			s.Ops = append(s.Ops, op)
		}
	}
	return s
}

// phaseMark records the first publish of a run — the end of set-up and the
// start of the measured phase — through the scenario's EventFor hook.
type phaseMark struct {
	set    bool
	wall   time.Time
	cpu    time.Duration
	onMark func()
}

func withMark(sc harness.Scenario, m *phaseMark) harness.Scenario {
	inner := sc.EventFor
	sc.EventFor = func(class int64, rng *rand.Rand) map[string]event.Value {
		if !m.set {
			m.set = true
			if m.onMark != nil {
				m.onMark()
			}
			m.wall, m.cpu = time.Now(), cpuTime()
		}
		if inner != nil {
			return inner(class, rng)
		}
		return map[string]event.Value{"b": event.Int(class)}
	}
	return sc
}

// virtualIter is one measured scenario run.
type virtualIter struct {
	start, mark, end time.Time
	setup, wall, cpu time.Duration
	vsecs            float64 // virtual seconds after the first publish
	res              *harness.Result
	lat              dist
	eligible, got    int64
	exact            string // the metrics that must repeat for a seed
	profile          []byte
	mem0, mem1       runtime.MemStats
}

func (it *virtualIter) cpuPerDelivery() float64 {
	return ratio(float64(it.cpu.Nanoseconds())/1e3, float64(it.res.Report.Delivered))
}

// runIter runs the scenario once; traced adds a CPU profile and memory
// statistics over the measured phase.
func runIter(sc harness.Scenario, seed int64, first time.Duration, traced bool) (*virtualIter, error) {
	it := &virtualIter{}
	var prof bytes.Buffer
	var profErr error
	m := &phaseMark{}
	if traced {
		m.onMark = func() {
			runtime.ReadMemStats(&it.mem0)
			profErr = pprof.StartCPUProfile(&prof)
		}
	}
	runtime.GC()
	t0 := time.Now()
	res, err := withMark(sc, m).Run(seed)
	t1, c1 := time.Now(), cpuTime()
	if traced && m.set && profErr == nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&it.mem1)
		it.profile = prof.Bytes()
	}
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", profErr)
	}
	if !m.set {
		return nil, fmt.Errorf("scenario %s never published", sc.Name)
	}
	it.start, it.mark, it.end = t0, m.wall, t1
	it.setup, it.wall, it.cpu = m.wall.Sub(t0), t1.Sub(m.wall), c1-m.cpu
	it.vsecs = (sc.Horizon - first).Seconds()
	it.res = res
	return it, nil
}

// check verifies a run's deliveries and computes its latency sample:
// no node delivers an event twice, every delivered ID was published, and
// the trace agrees with the per-node delivery lists.
func (it *virtualIter) check(o *outcome) {
	rep := &it.res.Report
	pubAt := make(map[string]int64, len(rep.Events))
	for _, ev := range rep.Events {
		pubAt[ev.ID] = ev.PublishedAt
		it.eligible += int64(ev.Eligible)
		it.got += int64(ev.Delivered)
	}
	pairs := 0
	for key, ids := range it.res.Delivered {
		seen := make(map[event.ID]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				o.fail("node %s delivered %s twice", key, id)
			}
			seen[id] = true
			if _, ok := pubAt[id.String()]; !ok {
				o.fail("node %s delivered %s, which was never published", key, id)
			}
		}
		pairs += len(ids)
	}
	if pairs != rep.Delivered {
		o.fail("per-node deliveries %d != report %d", pairs, rep.Delivered)
	}
	ms := make([]float64, 0, pairs)
	for _, line := range bytes.Split(it.res.Trace, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		f := bytes.Fields(line)
		if len(f) != 3 {
			o.fail("malformed trace line %q", line)
			continue
		}
		at, err := strconv.ParseInt(string(f[0]), 10, 64)
		pub, ok := pubAt[string(f[2])]
		if err != nil || !ok {
			o.fail("trace line %q names no published event", line)
			continue
		}
		ms = append(ms, float64(at-pub)/1e6)
	}
	if len(ms) != pairs {
		o.fail("trace holds %d deliveries, nodes %d", len(ms), pairs)
	}
	it.lat = summarize(ms)
	it.exact = fmt.Sprintf("trace %s delivered %d eligible %d got %d p50 %.6f p99 %.6f bytes %d envelopes %d",
		rep.TraceSHA256, rep.Delivered, it.eligible, it.got, it.lat.p50, it.lat.p99, rep.WireBytes, rep.Envelopes)
}

func runVirtual(def virtualDef, seed int64, seconds time.Duration, traced bool, log io.Writer) (*outcome, error) {
	debug.SetMemoryLimit(heapLimit)
	sc := def.build(seed)
	if def.runSeed != 0 {
		seed = def.runSeed
	}
	first, err := firstPublish(sc)
	if err != nil {
		return nil, err
	}
	spans := &spanLog{}
	rec := spans.recorder()
	o := &outcome{metrics: map[string]float64{}}

	var setups []float64
	if !traced {
		short := setupOnly(sc, first)
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			m := &phaseMark{}
			t0 := time.Now()
			if _, err := withMark(short, m).Run(seed); err != nil {
				return nil, err
			}
			if !m.set {
				return nil, fmt.Errorf("set-up run of %s never published", def.name)
			}
			rec.add("setup", t0, m.wall)
			setups = append(setups, m.wall.Sub(t0).Seconds())
		}
	}

	// Measured iterations, all under the run's seed: at least two, so every
	// run also checks that a seed replays exactly. The traced pass runs a
	// warm-up, then one untraced and one traced iteration of the same work.
	var iters []*virtualIter
	var measured time.Duration
	want := 2
	if traced {
		want = 3
	}
	for len(iters) < want || (!traced && measured < seconds) {
		it, err := runIter(sc, seed, first, traced && len(iters) == 2)
		if err != nil {
			return nil, err
		}
		rec.add("setup", it.start, it.mark)
		rec.add("measure", it.mark, it.end)
		it.check(o)
		fmt.Fprintf(log, "iteration %d: setup %.4fs measure %.4fs wall %.4fs cpu, %d deliveries, %s\n",
			len(iters), it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), it.res.Report.Delivered, it.exact)
		if len(iters) > 0 && it.exact != iters[0].exact {
			o.fail("seed %d did not replay exactly: %q vs %q", seed, it.exact, iters[0].exact)
		}
		iters = append(iters, it)
		setups = append(setups, it.setup.Seconds())
		measured += it.wall
	}

	base := iters[0]
	rep := &base.res.Report
	o.attempted, o.failed = base.eligible, base.eligible-base.got
	fmt.Fprintf(log, "deliver_ms %s\n", base.lat)
	fmt.Fprintf(log, "trace_sha256 %s\n", rep.TraceSHA256)
	fmt.Fprintf(log, "samples: setup n=%d, measured iterations n=%d, deliveries per iteration n=%d\n",
		len(setups), len(iters), rep.Delivered)
	spans.write(log)

	if traced {
		virtualLayers(o, iters[1], iters[2], log)
		return o, nil
	}
	// Per-repetition medians: a neighbour's burst on a shared machine slows
	// one repetition, not the run.
	var cpu, wall, heap []float64
	for _, it := range iters {
		cpu = append(cpu, it.cpuPerDelivery())
		wall = append(wall, ratio(float64(it.wall.Nanoseconds())/1e6, it.vsecs))
		heap = append(heap, it.res.Report.MBPerNode)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_us_per_delivery"] = median(cpu)
	o.metrics["wall_ms_per_vsec"] = median(wall)
	o.metrics["deliver_p50_ms"] = base.lat.p50
	o.metrics["deliver_p99_ms"] = base.lat.p99
	o.metrics["delivery_ratio"] = ratio(float64(base.got), float64(base.eligible))
	o.metrics["bytes_per_event"] = rep.BytesPerEvent
	o.metrics["envelopes_per_event"] = rep.EnvelopesPerEvent
	o.metrics["heap_mb_per_node"] = median(heap)
	if base.lat.n < 1000 {
		o.fail("only %d latency samples: a p99 needs 1000", base.lat.n)
	}
	return o, nil
}

// virtualLayers fills the per-layer metrics from the traced iteration.
func virtualLayers(o *outcome, untraced, it *virtualIter, log io.Writer) {
	setShares(o, it.profile, log)
	rep := &it.res.Report
	delivered := float64(rep.Delivered)
	m := o.metrics
	m["core.match_cache_hit_ratio"] = ratio(float64(rep.MatchCacheHits), float64(rep.MatchCacheHits+rep.MatchCacheMisses))
	m["transport.messages_dropped"] = float64(rep.MessagesDropped)
	for _, k := range []string{"udp.syscalls_per_event", "udp.datagrams_per_syscall", "udp.send_us_per_call",
		"udp.dropped", "udp.malformed", "node.publish_us", "node.egress_dropped", "bench.generator_late_p99_ms"} {
		m[k] = 0 // no UDP socket, no timed publish and no wall-clock generator on the virtual clock
	}
	m["wire.bytes_per_envelope"] = ratio(float64(rep.WireBytes), float64(rep.Envelopes))
	m["interest.match_evals_per_event"] = rep.MatchEvalsPerEvent
	m["interest.match_comparisons_per_event"] = ratio(float64(rep.MatchComparisons), float64(rep.Published))
	m["tree.fold_recompiles"] = float64(rep.FoldRecomputes)
	m["tree.fold_cache_hit_ratio"] = ratio(float64(rep.FoldCacheHits), float64(rep.FoldCacheHits+rep.FoldRecomputes))
	m["node.deliveries_dropped"] = float64(rep.DeliveriesDropped)
	m["harness.clock_events"] = float64(rep.ClockEvents)
	m["harness.latency_samples"] = float64(it.lat.n)
	m["harness.undelivered"] = float64(it.eligible - it.got)
	setMemory(o, &it.mem0, &it.mem1, delivered)
	m["trace.overhead_ratio"] = ratio(it.cpuPerDelivery(), untraced.cpuPerDelivery())
}

// setShares attributes a CPU profile and copies its shares into the
// per-layer metrics.
func setShares(o *outcome, profile []byte, log io.Writer) {
	stacks, err := parseProfile(profile)
	if err != nil {
		o.fail("decoding the CPU profile: %v", err)
	}
	s := sharesOf(stacks)
	fmt.Fprintf(log, "profile: %d samples\n", s.samples)
	for _, l := range layers {
		o.metrics[l+".cpu_share"] = s.share[l]
	}
	o.metrics["core.tick_round_share"] = s.tickRound
	o.metrics["runtime.gc_share"] = s.share[bucketGC]
	o.metrics["runtime.other_share"] = s.share[bucketRuntime]
	o.metrics["pmcast.other_share"] = s.share[bucketOther]
	o.metrics["bench.cpu_share"] = s.share[bucketBench]
}

// setMemory fills the runtime allocation metrics from MemStats deltas.
func setMemory(o *outcome, m0, m1 *runtime.MemStats, delivered float64) {
	o.metrics["runtime.allocs_per_delivery"] = ratio(float64(m1.Mallocs-m0.Mallocs), delivered)
	o.metrics["runtime.alloc_bytes_per_delivery"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), delivered)
	o.metrics["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
}
