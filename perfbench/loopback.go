package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
	"pmcast/internal/transport"
	"pmcast/internal/transport/udp"
)

// loopback16: 16 nodes (a 4×4 tree) in this process, each on its own
// 127.0.0.1 socket of one udp.Transport, with the library defaults — serial
// engine, kernel-batched UDP, 25 ms gossip. Membership and failure
// detection are quiesced so a scheduling hiccup cannot expel a live node.
// Load is an open loop of Poisson arrivals well below saturation.
const (
	loopArity, loopDepth = 4, 2
	loopGossip           = 25 * time.Millisecond // the node default gossip interval
	loopPhaseOrder       = 1                     // seeds the fixed order of ticker phases
	loopRate             = 800.0                 // events per second, over all publishers
	loopPublishers       = 4
	loopSetupReps        = 15
	loopDrainIdle        = 500 * time.Millisecond // no delivery for this long ends the drain
	loopDrainMax         = 3 * time.Second
	loopLateFlagMs       = 10.0 // a generator p99 lateness above this flags the run
)

// loopFleet is one built loopback fleet.
type loopFleet struct {
	tr    *udp.Transport
	nodes []*node.Node
}

// buildLoopFleet binds and configures the fleet, ready to start. A non-nil
// span log wraps the transport so every endpoint send is a span.
func buildLoopFleet(seed int64, spans *spanLog) (*loopFleet, error) {
	space := addr.MustRegular(loopArity, loopDepth)
	peers := make(map[string]string, space.Capacity())
	for i := 0; i < space.Capacity(); i++ {
		peers[space.AddressAt(i).Key()] = "127.0.0.1:0" // ephemeral, registered at attach
	}
	res, err := udp.NewStaticResolver(peers)
	if err != nil {
		return nil, err
	}
	tr, err := udp.New(udp.Config{Resolver: res})
	if err != nil {
		return nil, err
	}
	var fabric transport.Transport = tr
	if spans != nil {
		fabric = &tracedTransport{inner: tr, log: spans}
	}
	f := &loopFleet{tr: tr}
	sub := interest.NewSubscription() // matches every event
	recs := make([]membership.Record, space.Capacity())
	for i := range recs {
		recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: sub, Stamp: 1, Alive: true}
	}
	for i := 0; i < space.Capacity(); i++ {
		n, err := node.New(fabric, node.Config{
			Addr: space.AddressAt(i), Space: space,
			R: 2, F: 4, C: 2,
			Subscription:       sub,
			MembershipInterval: time.Hour,
			SuspectAfter:       time.Hour,
			MeasureWire:        true,
			Seed:               seed*1_000_003 + int64(i) + 1,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		n.Membership().Apply(membership.Update{Records: recs})
		if err := n.WarmViews(); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// start starts the nodes spread over one gossip interval, in a fixed
// order. A node's gossip ticker runs from its start, so this fixes the
// fleet's round phases: left to chance, or drawn per seed, they move
// publish-to-deliver latency by a fifth between runs, as the 16 tickers
// happen to line up along the forwarding paths or against them.
func (f *loopFleet) start() {
	order := rand.New(rand.NewSource(loopPhaseOrder)).Perm(len(f.nodes))
	step := loopGossip / time.Duration(len(f.nodes))
	t0 := time.Now()
	for k, i := range order {
		if d := time.Until(t0.Add(time.Duration(k) * step)); d > 0 {
			time.Sleep(d)
		}
		f.nodes[i].Start()
	}
}

// stop stops every node and closes the transport; each call returns once
// the node's goroutines and sockets are gone.
func (f *loopFleet) stop() {
	for _, n := range f.nodes {
		n.Stop()
	}
	f.tr.Close()
}

// arrival is one scheduled publish.
type arrival struct {
	at  time.Duration // offset from the start of the load
	pub int           // publisher number
}

// poissonSchedule draws an open-loop Poisson arrival schedule over the
// window, each arrival assigned to a random publisher. It is a pure
// function of its arguments.
func poissonSchedule(seed int64, rate float64, window time.Duration, publishers int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, arrival{at: at, pub: rng.Intn(publishers)})
	}
}

// loopPhase is the measurement of one load window on one fleet.
type loopPhase struct {
	published, delivered int64
	wall, cpu            time.Duration
	window               time.Duration
	lat, late            dist
	udp                  udp.Stats
	envelopes, bytes     int64
	match                core.MatchStats
	egressDrops          int64
	deliveryDrops        int64
	heapMBPerNode        float64
	publishUs            float64
	profile              []byte
	mem0, mem1           runtime.MemStats
}

func (p *loopPhase) cpuPerDelivery() float64 {
	return ratio(float64(p.cpu.Nanoseconds())/1e3, float64(p.delivered))
}

// measureLoad offers the schedule to a started fleet, waits for the
// deliveries to drain, and collects counters. spans, when non-nil, turns
// on the traced pass: publish spans, a CPU profile and memory statistics.
func measureLoad(f *loopFleet, sched []arrival, window time.Duration, spans *spanLog, o *outcome) *loopPhase {
	nodes := len(f.nodes)
	space := addr.MustRegular(loopArity, loopDepth)
	stride := nodes / loopPublishers
	origin := make(map[string]int, loopPublishers)
	perPub := make([]int, loopPublishers)
	for _, a := range sched {
		perPub[a.pub]++
	}
	// due[p][seq-1] holds the due offset (+1, so 0 reads "not yet
	// published") of publisher p's event seq, stored before Publish so even
	// the publisher's own delivery finds it.
	due := make([][]atomic.Int64, loopPublishers)
	for p := range due {
		origin[space.AddressAt(p*stride).Key()] = p
		due[p] = make([]atomic.Int64, perPub[p])
	}

	var delivered, bad, dup atomic.Int64
	lats := make([][]float64, nodes)
	done := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now().Add(2 * time.Millisecond) // first arrivals are due just after the consumers start
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, ch <-chan event.Event) {
			defer wg.Done()
			seen := make([][]bool, loopPublishers)
			for p := range seen {
				seen[p] = make([]bool, perPub[p])
			}
			for {
				select {
				case <-done:
					return
				case ev, ok := <-ch:
					if !ok {
						return
					}
					now := time.Since(t0)
					id := ev.ID()
					p, known := origin[id.Origin]
					if !known || id.Seq == 0 || id.Seq > uint64(len(due[p])) {
						bad.Add(1)
						continue
					}
					d := due[p][id.Seq-1].Load()
					if d == 0 {
						bad.Add(1)
						continue
					}
					if seen[p][id.Seq-1] {
						dup.Add(1)
						continue
					}
					seen[p][id.Seq-1] = true
					lats[i] = append(lats[i], float64(now-time.Duration(d-1))/1e6)
					delivered.Add(1)
				}
			}
		}(i, n.Deliveries())
	}

	ph := &loopPhase{window: window}
	var prof bytes.Buffer
	var pubRec *spanRecorder
	if spans != nil {
		pubRec = spans.recorder()
		runtime.ReadMemStats(&ph.mem0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			o.fail("starting the CPU profile: %v", err)
		}
	}
	wall0, cpu0 := time.Now(), cpuTime()

	// The generator: one goroutine (this one) publishing on schedule. Each
	// event is timed from when it was due, so a stalled publish also
	// charges the wait it imposes on later ones.
	lateMs := make([]float64, 0, len(sched))
	seqs := make([]uint64, loopPublishers)
	attrs := map[string]event.Value{"b": event.Int(0)}
	for _, a := range sched {
		if d := time.Until(t0.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		seqs[a.pub]++
		due[a.pub][seqs[a.pub]-1].Store(int64(a.at) + 1)
		start := time.Now()
		lateMs = append(lateMs, float64(start.Sub(t0)-a.at)/1e6)
		id, err := f.nodes[a.pub*stride].Publish(attrs)
		if pubRec != nil {
			pubRec.record("publish", start)
		}
		if err != nil {
			o.fail("publish from %s: %v", f.nodes[a.pub*stride].Addr(), err)
			continue
		}
		if id.Seq != seqs[a.pub] {
			o.fail("publish from %s returned seq %d, want %d", id.Origin, id.Seq, seqs[a.pub])
		}
		ph.published++
	}

	// Drain: until every pair is delivered or no delivery arrives for a
	// while. The measured phase ends at the last observed progress, so the
	// idle wait for a missing pair does not count as work.
	want := ph.published * int64(nodes)
	last, lastAt, lastCPU := delivered.Load(), time.Now(), cpuTime()
	for last < want && time.Since(lastAt) < loopDrainIdle && time.Since(t0) < window+loopDrainMax {
		time.Sleep(5 * time.Millisecond)
		if cur := delivered.Load(); cur != last {
			last, lastAt, lastCPU = cur, time.Now(), cpuTime()
		}
	}
	ph.wall, ph.cpu = lastAt.Sub(wall0), lastCPU-cpu0
	if spans != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ph.mem1)
		ph.profile = prof.Bytes()
	}
	close(done)
	wg.Wait()

	ph.delivered = delivered.Load()
	if n := bad.Load(); n > 0 {
		o.fail("%d deliveries name an event that was never published", n)
	}
	if n := dup.Load(); n > 0 {
		o.fail("%d deliveries repeat an event the node already delivered", n)
	}
	var all []float64
	for i := range lats {
		all = append(all, lats[i]...)
		lats[i] = nil
	}
	ph.lat = summarize(all)
	ph.late = summarize(lateMs)

	ph.udp = f.tr.Stats()
	for _, n := range f.nodes {
		env, b := n.WireStats()
		ph.envelopes += env
		ph.bytes += b
		ph.match.Accumulate(n.MatchStats())
		eg, malformed := n.EngineStats()
		ph.egressDrops += eg
		if malformed > 0 {
			o.fail("node %s discarded %d malformed frames", n.Addr(), malformed)
		}
		ph.deliveryDrops += n.DroppedDeliveries()
	}
	if ph.udp.Malformed != 0 || ph.udp.Dropped != 0 {
		o.fail("udp lost frames: %d malformed, %d dropped", ph.udp.Malformed, ph.udp.Dropped)
	}
	if ph.egressDrops != 0 {
		o.fail("nodes dropped %d egress jobs", ph.egressDrops)
	}
	if pubRec != nil {
		if st := spans.stats()["publish"]; st != nil {
			ph.publishUs = st.meanMicros()
		}
	}

	all, lateMs = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.heapMBPerNode = float64(ms.HeapAlloc) / float64(nodes) / (1 << 20)
	return ph
}

// timedBuild builds a fleet and returns its build time.
func timedBuild(seed int64, spans *spanLog) (*loopFleet, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := buildLoopFleet(seed, spans)
	return f, time.Since(t0), err
}

// runPhase builds and starts a fleet, offers it the schedule and tears it
// down.
func runPhase(seed int64, sched []arrival, window time.Duration, spans *spanLog, o *outcome) (*loopPhase, time.Duration, error) {
	f, build, err := timedBuild(seed, spans)
	if err != nil {
		return nil, 0, err
	}
	defer f.stop()
	f.start()
	return measureLoad(f, sched, window, spans, o), build, nil
}

func runLoopback(seed int64, seconds time.Duration, traced bool, log io.Writer) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	if traced {
		return loopbackTraced(seed, seconds, o, log)
	}
	var setups []float64
	for i := 0; i < loopSetupReps; i++ {
		f, build, err := timedBuild(seed, nil)
		if err != nil {
			return nil, err
		}
		f.stop()
		setups = append(setups, build.Seconds())
	}
	sched := poissonSchedule(seed, loopRate, seconds, loopPublishers)
	ph, build, err := runPhase(seed, sched, seconds, nil, o)
	if err != nil {
		return nil, err
	}
	setups = append(setups, build.Seconds())
	describeLoop(ph, log)
	fmt.Fprintf(log, "samples: setup n=%d\n", len(setups))

	nodes := float64(loopArity * loopArity)
	o.attempted = ph.published * int64(nodes)
	o.failed = o.attempted - ph.delivered
	o.metrics["setup_s"] = median(setups)
	o.metrics["cpu_us_per_delivery"] = ph.cpuPerDelivery()
	o.metrics["wall_ms_per_vsec"] = ratio(float64(ph.wall.Nanoseconds())/1e6, ph.window.Seconds())
	o.metrics["deliver_p50_ms"] = ph.lat.p50
	o.metrics["deliver_p99_ms"] = ph.lat.p99
	o.metrics["delivery_ratio"] = ratio(float64(ph.delivered), float64(o.attempted))
	o.metrics["bytes_per_event"] = ratio(float64(ph.bytes), float64(ph.published))
	o.metrics["envelopes_per_event"] = ratio(float64(ph.udp.SentDatagrams), float64(ph.published))
	o.metrics["heap_mb_per_node"] = ph.heapMBPerNode
	if ph.lat.n < 1000 {
		o.fail("only %d latency samples: a p99 needs 1000", ph.lat.n)
	}
	return o, nil
}

// loopbackTraced runs half the time untraced and half traced, on fresh
// fleets offered the same schedule, and reports the per-layer metrics of
// the traced half.
func loopbackTraced(seed int64, seconds time.Duration, o *outcome, log io.Writer) (*outcome, error) {
	half := seconds / 2
	sched := poissonSchedule(seed, loopRate, half, loopPublishers)
	base, _, err := runPhase(seed, sched, half, nil, o)
	if err != nil {
		return nil, err
	}
	spans := &spanLog{}
	ph, _, err := runPhase(seed, sched, half, spans, o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, "untraced half:")
	describeLoop(base, log)
	fmt.Fprintln(log, "traced half:")
	describeLoop(ph, log)
	spans.write(log)

	o.attempted = ph.published * int64(loopArity*loopArity)
	o.failed = o.attempted - ph.delivered
	setShares(o, ph.profile, log)
	m := o.metrics
	st := ph.udp
	syscalls := float64(st.SendSyscalls + st.RecvSyscalls)
	m["core.match_cache_hit_ratio"] = ratio(float64(ph.match.Hits), float64(ph.match.Hits+ph.match.Misses))
	m["transport.messages_dropped"] = 0 // the in-memory fabric is not used
	m["udp.syscalls_per_event"] = ratio(syscalls, float64(ph.published))
	m["udp.datagrams_per_syscall"] = ratio(float64(st.SentDatagrams+st.RecvDatagrams), syscalls)
	var sends int
	var sendTime time.Duration
	for name, s := range spans.stats() {
		if name == "udp.send" || name == "udp.send_many" {
			sends += s.count
			sendTime += s.total
		}
	}
	m["udp.send_us_per_call"] = ratio(float64(sendTime.Nanoseconds())/1e3, float64(sends))
	m["udp.dropped"] = float64(st.Dropped)
	m["udp.malformed"] = float64(st.Malformed)
	m["wire.bytes_per_envelope"] = ratio(float64(ph.bytes), float64(ph.envelopes))
	m["interest.match_evals_per_event"] = ratio(float64(ph.match.Evals), float64(ph.published))
	m["interest.match_comparisons_per_event"] = ratio(float64(ph.match.Comparisons), float64(ph.published))
	m["tree.fold_recompiles"] = float64(ph.match.FoldRecomputes)
	m["tree.fold_cache_hit_ratio"] = ratio(float64(ph.match.FoldHits), float64(ph.match.FoldHits+ph.match.FoldRecomputes))
	m["node.publish_us"] = ph.publishUs
	m["node.deliveries_dropped"] = float64(ph.deliveryDrops)
	m["node.egress_dropped"] = float64(ph.egressDrops)
	m["harness.clock_events"] = 0 // no virtual clock: the real runtime
	m["harness.latency_samples"] = 0
	m["harness.undelivered"] = 0
	setMemory(o, &ph.mem0, &ph.mem1, float64(ph.delivered))
	m["bench.generator_late_p99_ms"] = ph.late.p99
	m["trace.overhead_ratio"] = ratio(ph.cpuPerDelivery(), base.cpuPerDelivery())
	return o, nil
}

// describeLoop prints a phase's raw figures with their sample counts.
func describeLoop(ph *loopPhase, log io.Writer) {
	fmt.Fprintf(log, "published %d events, %d deliveries, wall %.4fs cpu %.4fs\n",
		ph.published, ph.delivered, ph.wall.Seconds(), ph.cpu.Seconds())
	fmt.Fprintf(log, "deliver_ms %s\n", ph.lat)
	fmt.Fprintf(log, "generator_late_ms %s\n", ph.late)
	if ph.late.p99 > loopLateFlagMs {
		fmt.Fprintf(log, "FLAG generator behind schedule: p99 lateness %.3f ms > %.0f ms\n", ph.late.p99, loopLateFlagMs)
	}
	st := ph.udp
	fmt.Fprintf(log, "udp: send %d syscalls %d datagrams, recv %d syscalls %d datagrams, malformed %d dropped %d\n",
		st.SendSyscalls, st.SentDatagrams, st.RecvSyscalls, st.RecvDatagrams, st.Malformed, st.Dropped)
}
