package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is the CPU time of the traced rounds' timed phases, split
// by the module that owns each sample.
type cpuProfile struct {
	periodNS int64            // CPU time one sample stands for
	samples  map[string]int64 // samples per module
	total    int64
}

// profiler runs runtime/pprof around the timed phase of each traced
// round and folds every profile into one cpuProfile. A nil *profiler
// does nothing.
type profiler struct {
	buf bytes.Buffer
	acc cpuProfile
	err error
}

func newProfiler() *profiler {
	return &profiler{acc: cpuProfile{samples: map[string]int64{}}}
}

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil || p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.acc.periodNS = prof.periodNS
	for m, n := range prof.samples {
		p.acc.samples[m] += n
	}
	p.acc.total += prof.total
}

// internalPrefix is the import-path prefix of the repository's modules.
const internalPrefix = "tscout/internal/"

// moduleOf maps one sampled stack, innermost frame first, to the module
// that is charged for it: the innermost tscout/internal/<module> frame,
// so runtime work (allocation, map access, GC assists) counts against
// the module whose code asked for it. Stacks with no such frame are
// "gc" when they run under a GC background mark worker and "other"
// otherwise (the scheduler, the benchmark's own code).
func moduleOf(frames []string) string {
	for _, f := range frames {
		if m := internalModule(f); m != "" {
			return m
		}
	}
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" || f == "runtime._GC" {
			return "gc"
		}
	}
	return "other"
}

// internalModule returns the module of a tscout/internal function name
// such as "tscout/internal/sql.(*parser).parseSelect" or
// "tscout/internal/analysis/tsvet.main", or "" for any other function.
func internalModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// parseCPUProfile decodes a gzipped pprof CPU profile as runtime/pprof
// writes it and attributes each sample's CPU time with moduleOf. Only
// the fields needed for that are read.
func parseCPUProfile(data []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
		period    int64
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1: // location_id
					s.locs = appendUvarints(s.locs, wire, v, b)
				case 2: // value: [samples, cpu nanoseconds]
					if vals := appendUvarints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(field, wire int, v uint64, b []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}

	out := cpuProfile{periodNS: period, samples: map[string]int64{}}
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out.samples[moduleOf(frames)] += s.count
		out.total += s.count
	}
	return out, nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks the fields of one protobuf message, calling fn with the
// field number, wire type, and the varint value (wire type 0) or the
// payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendUvarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
