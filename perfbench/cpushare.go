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

// cpuBuckets are the layers a CPU profile sample is attributed to, in
// report order.
var cpuBuckets = []string{"interp", "core", "monitor", "undo", "heap", "jmm", "sched", "simtime", "trace", "fr", "frontend", "runtime", "other"}

// bucketOf maps a repro/internal package to its bucket.
func bucketOf(pkg string) string {
	switch pkg {
	case "bytecode", "rewrite", "analysis":
		return "frontend"
	case "interp", "core", "monitor", "undo", "heap", "jmm", "sched", "simtime", "trace", "fr":
		return pkg
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns the share of
// CPU time per bucket. A sample goes to the innermost repro/internal/<pkg>
// frame on its stack. Samples with no such frame go to "runtime" (the Go
// scheduler, garbage collector and other runtime goroutines), unless the
// benchmark's own code is on the stack, which is "other".
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcBucket := map[uint64]string{} // function id → bucket, "" when not ours
	for id, nameIdx := range p.funcName {
		if nameIdx >= uint64(len(p.strings)) {
			return nil, 0, fmt.Errorf("cpu profile: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		name := p.strings[nameIdx]
		switch {
		case strings.HasPrefix(name, "repro/internal/"):
			pkg := strings.TrimPrefix(name, "repro/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			funcBucket[id] = bucketOf(pkg)
		case strings.HasPrefix(name, "main."):
			funcBucket[id] = "main"
		}
	}
	totals := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		bucket := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if b := funcBucket[fn]; b != "" {
					bucket = b
					break stack
				}
			}
		}
		if bucket == "main" {
			bucket = "other"
		}
		totals[bucket] += float64(s.value)
		total += float64(s.value)
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = totals[b] / total
		}
	}
	return shares, len(p.samples), nil
}

// profile is the part of a pprof profile.proto that cpuShares needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := eachField(data, func(field, wire int, v uint64, data []byte) error {
				switch field {
				case 1:
					ids, err := varints(wire, v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wire, v, data)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(field, wire int, v uint64, data []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(field, wire int, v uint64, _ []byte) error {
						if field == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunctionField:
			var id, name uint64
			err := eachField(data, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value
// per field (wire type 0) or packed (wire type 2).
func varints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
