package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/transport"
)

// span is one timed call made by the benchmark into the program.
type span struct {
	name string
	dur  time.Duration
}

// spanLog keeps spans in memory until the run ends. Each recorder holds its
// own slice behind its own lock, so node goroutines never contend on one.
type spanLog struct {
	mu   sync.Mutex
	recs []*spanRecorder
}

type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) recorder() *spanRecorder {
	r := &spanRecorder{}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
	return r
}

// record closes a span opened at start.
func (r *spanRecorder) record(name string, start time.Time) { r.add(name, start, time.Now()) }

func (r *spanRecorder) add(name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, dur: end.Sub(start)})
	r.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration
	ms    []float64
}

func (s spanStat) meanMicros() float64 {
	return ratio(float64(s.total.Nanoseconds())/1e3, float64(s.count))
}

// stats groups every recorded span by name.
func (l *spanLog) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		r.mu.Lock()
		for _, s := range r.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStat{}
				out[s.name] = st
			}
			st.count++
			st.total += s.dur
			st.ms = append(st.ms, float64(s.dur.Nanoseconds())/1e6)
		}
		r.mu.Unlock()
	}
	return out
}

// write prints one summary line per span name.
func (l *spanLog) write(w io.Writer) {
	st := l.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "span %-14s count=%d mean_us=%.3f %s (ms)\n", n, s.count, s.meanMicros(), summarize(s.ms))
	}
}

// tracedTransport wraps a transport so every endpoint Send and SendMany is
// a span. Its endpoints forward the batch seams of the wrapped endpoint, so
// a node takes the same send and receive paths traced as untraced.
type tracedTransport struct {
	inner transport.Transport
	log   *spanLog
}

func (t *tracedTransport) Attach(a addr.Address) (transport.Endpoint, error) {
	ep, err := t.inner.Attach(a)
	if err != nil {
		return nil, err
	}
	bs, okS := ep.(transport.BatchSender)
	br, okR := ep.(transport.BatchReceiver)
	if !okS || !okR {
		ep.Close()
		return nil, fmt.Errorf("traced transport: endpoint %s lacks the batch seams", a)
	}
	return &tracedEndpoint{Endpoint: ep, bs: bs, br: br, rec: t.log.recorder()}, nil
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

type tracedEndpoint struct {
	transport.Endpoint
	bs  transport.BatchSender
	br  transport.BatchReceiver
	rec *spanRecorder
}

func (e *tracedEndpoint) Send(to addr.Address, payload any) error {
	defer e.rec.record("udp.send", time.Now())
	return e.Endpoint.Send(to, payload)
}

func (e *tracedEndpoint) SendMany(msgs []transport.Outgoing) error {
	defer e.rec.record("udp.send_many", time.Now())
	return e.bs.SendMany(msgs)
}

func (e *tracedEndpoint) RecvMany(out []transport.Envelope) (int, bool) {
	return e.br.RecvMany(out)
}
