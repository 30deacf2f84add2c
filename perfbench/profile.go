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

// The CPU profile is read with a minimal decoder of the pprof protobuf
// (github.com/google/pprof/proto/profile.proto), since the module uses the
// standard library only. It keeps just what per-layer self time needs:
// samples with their location stacks, locations with their (inlined)
// function lines, function names and the string table.

// layerShares charges every CPU sample of a gzipped pprof profile to one
// layer and returns each layer's share of the samples in percent. Garbage
// collection work ("gc") is charged first, wherever it runs. Any other
// sample goes to the innermost frame in one of this module's packages, so
// runtime and standard-library work (map lookups, allocation, copies) counts
// toward the layer that asked for it; samples with no such frame are
// "other". Layers are package paths below internal/, with "/" as "."
// ("sim.shard", "workloads.kvcache"); the benchmark itself is "perfbench".
func layerShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if s.value <= 0 {
			continue
		}
		total += s.value
		counts[p.layerOf(s.locs)] += s.value
	}
	shares := make(map[string]float64, len(counts))
	for k, v := range counts {
		shares[k] = 100 * float64(v) / float64(total)
	}
	return shares, total, nil
}

type profSample struct {
	locs  []uint64
	value int64 // sample count
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string table index
	strs    []string
}

func (p *profile) name(fn uint64) string {
	i := p.fnName[fn]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *profile) layerOf(locs []uint64) string {
	var names []string
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			names = append(names, p.name(fn))
		}
	}
	for _, n := range names {
		if isGCFunc(n) {
			return "gc"
		}
	}
	for _, n := range names {
		if layer, ok := layerOfFunc(n); ok {
			return layer
		}
	}
	return "other"
}

// isGCFunc reports whether a runtime function does garbage-collection work:
// background and assist marking, sweeping and scavenging.
func isGCFunc(name string) bool {
	for _, pre := range []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
		"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination",
	} {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

// layerOfFunc maps a fully qualified function name of this module to its
// layer name.
func layerOfFunc(name string) (string, bool) {
	const mod = "thymesisflow/"
	if !strings.HasPrefix(name, mod) {
		return "", false
	}
	path := name[len(mod):]
	// The package path ends at the first "." after its last "/".
	slash := strings.LastIndex(path, "/")
	if dot := strings.Index(path[slash+1:], "."); dot >= 0 {
		path = path[:slash+1+dot]
	}
	path = strings.TrimPrefix(path, "internal/")
	return strings.ReplaceAll(path, "/", "."), true
}

// decodeProfile parses the uncompressed profile message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			s, err := decodeSample(sub)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			return decodeLocation(sub, p)
		case 5: // function
			return decodeFunction(sub, p)
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

func decodeSample(b []byte) (profSample, error) {
	var s profSample
	var values []uint64
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			ids, err := repeated(wire, v, sub)
			s.locs = append(s.locs, ids...)
			return err
		case 2:
			vs, err := repeated(wire, v, sub)
			values = append(values, vs...)
			return err
		}
		return nil
	})
	if len(values) > 0 {
		s.value = int64(values[0])
	}
	return s, err
}

func decodeLocation(b []byte, p *profile) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			id = v
		case 4: // line
			return eachField(sub, func(f int, _ int, v uint64, _ []byte) error {
				if f == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locFns[id] = fns
	return err
}

func decodeFunction(b []byte, p *profile) error {
	var id uint64
	var name int64
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	p.fnName[id] = name
	return err
}

// repeated returns the values of a repeated varint field in either the
// packed (length-delimited) or the unpacked encoding.
func repeated(wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errBadVarint
		}
		out = append(out, x)
		sub = sub[n:]
	}
	return out, nil
}

var errBadVarint = errors.New("malformed varint")

// eachField walks the fields of one protobuf message. fn receives the
// varint value for wire type 0 and the payload for wire type 2.
func eachField(b []byte, fn func(field int, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadVarint
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadVarint
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return io.ErrUnexpectedEOF
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return io.ErrUnexpectedEOF
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return io.ErrUnexpectedEOF
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
