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

// This file reads the runtime/pprof profiles the benchmark takes of its
// own process and charges each sample to one layer. It decodes the
// profile.proto wire format with the standard library alone, so the
// module needs no dependency.

// modulePrefix starts the name of every function in a layer: a layer is
// one package under internal/.
const modulePrefix = "github.com/vanlan/vifi/internal/"

// gcFrames start the names of functions that only garbage collection
// runs. A stack holding one is charged to runtime.gc even when an
// internal/ frame is below it, as for a mark assist inside an allocation.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.GC",
}

// layerOf charges a stack, given innermost frame first, to runtime.gc if
// garbage collection is on it, else to the innermost internal/ package on
// it, else to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// tracer profiles one run: CPU across its timed spans, and the in-use
// heap at its heap probe. Its methods do nothing on a nil tracer, so
// untraced runs share the traced code path.
type tracer struct {
	buf     bytes.Buffer
	running bool
	cpu     map[string]int64 // layer → CPU nanoseconds
	inuse   map[string]int64 // layer → in-use bytes
	err     error
}

func (t *tracer) start() {
	if t == nil {
		return
	}
	t.cpu, t.inuse = map[string]int64{}, map[string]int64{}
	t.resume()
}

// resume starts a CPU profile segment.
func (t *tracer) resume() {
	if t == nil || t.err != nil {
		return
	}
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		t.err = err
		return
	}
	t.running = true
}

// pause ends the current CPU profile segment and charges its samples.
// A run, whether it ends normally or on an error, ends with a pause.
func (t *tracer) pause() {
	if t == nil || !t.running {
		return
	}
	pprof.StopCPUProfile()
	t.running = false
	t.add(t.cpu, t.buf.Bytes(), "cpu")
}

// heap charges the in-use heap as of the last completed GC.
func (t *tracer) heap() {
	if t == nil || t.err != nil {
		return
	}
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		t.err = err
		return
	}
	t.add(t.inuse, b.Bytes(), "inuse_space")
}

func (t *tracer) add(into map[string]int64, data []byte, sampleType string) {
	p, err := parseProfile(data)
	if err == nil {
		err = p.charge(into, sampleType)
	}
	if err != nil && t.err == nil {
		t.err = err
	}
}

// profile is the part of a decoded profile.proto the attribution needs.
type profile struct {
	strings     []string
	sampleTypes []int64 // string index of each value's type
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location → functions, innermost first
	funcNames   map[uint64]int64    // function → string index of its name
}

type profSample struct {
	locs []uint64 // leaf first
	vals []int64
}

// charge adds each sample's value of the named type to its layer.
func (p *profile) charge(into map[string]int64, sampleType string) error {
	col := -1
	for i, s := range p.sampleTypes {
		if p.str(s) == sampleType {
			col = i
		}
	}
	if col < 0 {
		return fmt.Errorf("profile has no %q samples", sampleType)
	}
	var stack []string
	for _, s := range p.samples {
		if col >= len(s.vals) {
			return errors.New("profile sample is missing values")
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range p.locFuncs[l] {
				stack = append(stack, p.str(p.funcNames[f]))
			}
		}
		into[layerOf(stack)] += s.vals[col]
	}
	return nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped or plain profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			var typ int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s profSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendInts(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendInts(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendInts appends a repeated integer field, packed (b non-nil) or not.
func appendInts(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its integer value or, for length-delimited fields, its bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)] // non-nil even when empty
			data = data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
