package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the internal/ packages a CPU sample can be charged to, in
// report order. Other internal packages (telemetry, stats, report, hv, ...)
// are helpers: their samples go to the nearest named layer that called them.
var layers = []string{
	"sim", "mem", "ksm", "migrate", "vnet", "qemu", "kvm", "cpu", "workload",
	"fleet", "controlplane", "loadgen", "shard", "runner", "detect", "core",
	"experiments",
}

// buckets are every place a sample can land: the layers, the GC workers,
// and everything else.
var buckets = append(append([]string{}, layers...), "gc", "other")

const internalPrefix = "cloudskulk/internal/"

// gcFrames mark the runtime's own GC goroutines (and the pseudo-frame the
// profiler uses for GC samples it could not unwind). Assist work done on a
// user goroutine carries that goroutine's frames and so stays with the
// layer that allocated.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}

// chargeTo names the bucket a sample with the given stack (function names,
// innermost first) is charged to: its innermost frame in a named layer,
// else gc for GC-worker stacks, else other.
func chargeTo(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	return "other"
}

// layerOf returns the named layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if rest == l {
			return l
		}
	}
	return ""
}

// cpuProfile is the part of a pprof CPU profile the attribution needs.
type cpuProfile struct {
	Samples []cpuSample
}

// cpuSample is one stack with its sample count and CPU nanoseconds.
type cpuSample struct {
	Stack []string // function names, innermost first (inlined frames included)
	Count int64
	Nanos int64
}

// charge is one bucket's share of a set of profiles.
type charge struct {
	Nanos   int64
	Samples int64
}

// attribute sums the profile's samples per bucket.
func attribute(p *cpuProfile, into map[string]charge) {
	for _, s := range p.Samples {
		b := chargeTo(s.Stack)
		c := into[b]
		c.Nanos += s.Nanos
		c.Samples += s.Count
		into[b] = c
	}
}

// parseProfile reads a (gzipped) profile.proto as runtime/pprof writes it.
// It decodes only the fields attribution needs: sample_type, sample
// (location_id, value), location (id, line.function_id), function (id,
// name) and the string table.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []uint64 // string index of each value's type
		raws        []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
		strs        []string
	)
	err := eachField(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.data, func(g field) error {
				if g.num == 1 {
					sampleTypes = append(sampleTypes, g.val)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.varints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.varints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, nanosIdx := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			countIdx = i
		case "cpu":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu sample types)")
	}
	p := &cpuProfile{}
	for _, r := range raws {
		if len(r.values) != len(sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(r.values), len(sampleTypes))
		}
		s := cpuSample{Count: r.values[countIdx], Nanos: r.values[nanosIdx]}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.Stack = append(s.Stack, str(funcNames[fn]))
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// field is one decoded protobuf field: a varint value (wire types 0, 1
// and 5) or a length-delimited payload (wire type 2).
type field struct {
	num  uint64
	wire uint64
	val  uint64
	data []byte
}

// varints yields a repeated scalar field's values, packed or not.
func (f field) varints(fn func(uint64)) error {
	if f.wire != 2 {
		fn(f.val)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// eachField decodes the fields of one protobuf message in order.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: key >> 3, wire: key & 7}
		switch f.wire {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64 field")
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32 field")
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return errors.New("bad length-delimited field")
			}
			f.data = b[n : n+int(size)]
			b = b[n+int(size):]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
