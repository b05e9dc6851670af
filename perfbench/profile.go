package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile written by runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// each sample's stack of function names, so it decodes the few fields that
// carry them instead of depending on the pprof module.

// stack is one profile sample: function names innermost first (inlined
// frames expanded) and the sample count.
type stack struct {
	funcs []string
	count int64
}

// Field numbers of profile.proto used here.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next reads a field key and, for length-delimited fields, its payload;
// for varint fields it returns the value; other wire types are skipped.
func (p *pbuf) next() (field int, wire int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, val, data, err
}

// uints appends a repeated uint64 field, packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into sample stacks.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		q := pbuf{data}
		switch field {
		case profSample:
			var s sample
			var vals []uint64
			for len(q.b) > 0 {
				f, w, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case sampleLocationID:
					if s.locs, err = uints(s.locs, w, v, d); err != nil {
						return nil, err
					}
				case sampleValue: // packed or one field per value; the first is the count
					if vals, err = uints(vals, w, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				f, _, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case locationID:
					id = v
				case locationLine:
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == lineFunction {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case profFunction:
			var id, name uint64
			for len(q.b) > 0 {
				f, _, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
			}
			fnName[id] = name
		case profStringTable:
			strs = append(strs, string(data))
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layers are the repository modules the traced run attributes CPU to, by
// metric prefix.
var layers = []string{
	"core", "analysis", "transport", "udp", "wire", "event", "binenc",
	"interest", "tree", "membership", "addr", "node", "harness", "clock",
}

// Attribution buckets besides the layers.
const (
	bucketBench     = "bench"         // the benchmark's own code
	bucketOther     = "pmcast.other"  // any other pmcast package
	bucketGC        = "runtime.gc"    // collector work with no pmcast caller
	bucketRuntime   = "runtime.other" // everything else
	tickRoundFrame  = "pmcast/internal/core.(*Process).TickRound"
	internalPrefix  = "pmcast/internal/"
	benchPackage    = "pmcast/perfbench" // "main" in the built binary
	udpPackage      = "transport/udp"
	runtimeGCPrefix = "runtime.gc"
)

// packageOf returns the import path of a profiled function name such as
// "pmcast/internal/transport/udp.(*endpoint).Send".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf names the pmcast bucket of one frame, or "" for a frame outside
// pmcast.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || pkg == benchPackage:
		return bucketBench
	case strings.HasPrefix(pkg, internalPrefix):
		mod := strings.TrimPrefix(pkg, internalPrefix)
		if mod == udpPackage {
			return "udp"
		}
		for _, l := range layers {
			if mod == l {
				return l
			}
		}
		return bucketOther
	case pkg == "pmcast" || strings.HasPrefix(pkg, "pmcast/"):
		return bucketOther
	}
	return ""
}

// isGCFrame reports whether a runtime frame belongs to the collector's own
// goroutines (mark workers, sweeper, scavenger).
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, runtimeGCPrefix) ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// attribute assigns a stack to the innermost pmcast frame's bucket, so a
// runtime call made on a module's behalf (allocation, map access) counts
// for that module; stacks with no pmcast frame go to runtime.gc or
// runtime.other.
func attribute(funcs []string) string {
	for _, fn := range funcs {
		if b := bucketOf(fn); b != "" {
			return b
		}
	}
	for _, fn := range funcs {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	return bucketRuntime
}

// cpuShares is the traced run's profile summary: the share of samples per
// bucket and under Process.TickRound.
type cpuShares struct {
	samples   int64
	share     map[string]float64
	tickRound float64
}

func sharesOf(stacks []stack) cpuShares {
	counts := map[string]int64{}
	var total, tick int64
	for _, s := range stacks {
		total += s.count
		counts[attribute(s.funcs)] += s.count
		for _, fn := range s.funcs {
			if fn == tickRoundFrame {
				tick += s.count
				break
			}
		}
	}
	cs := cpuShares{samples: total, share: map[string]float64{}}
	for b, c := range counts {
		cs.share[b] = ratio(float64(c), float64(total))
	}
	cs.tickRound = ratio(float64(tick), float64(total))
	return cs
}
