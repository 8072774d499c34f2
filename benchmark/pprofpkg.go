package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for just enough of the pprof profile format (a gzipped
// perftools.profiles.Profile protobuf) to aggregate a CPU profile flat by
// Go package: each sample's last value (CPU nanoseconds) goes to the
// package of the function at the top of its stack.

var errProto = errors.New("benchmark: malformed profile")

// protoFields calls fn for every field of a protobuf message. Varint and
// fixed fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// cpuByPackage returns CPU seconds per Go package from a gzipped pprof CPU
// profile, and their total.
func cpuByPackage(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("benchmark: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("benchmark: profile: %w", err)
	}

	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → function id of its innermost line
		funcName = map[uint64]uint64{} // function id → string-table index of its name
		strs     []string
		scratch  []uint64
	)
	err = protoFields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1: // location_id, leaf first
					if scratch, err = repeatedVarints(scratch[:0], wire, v, data); err == nil && first && len(scratch) > 0 {
						s.leaf, first = scratch[0], false
					}
				case 2: // value; the CPU profile's last value is nanoseconds
					if scratch, err = repeatedVarints(scratch[:0], wire, v, data); err == nil && len(scratch) > 0 {
						s.ns = int64(scratch[len(scratch)-1])
					}
				}
				return err
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	by := make(map[string]float64)
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		sec := float64(s.ns) / 1e9
		by[packageOf(name)] += sec
		total += sec
	}
	return by, total, nil
}

// packageOf returns the import path of a Go symbol name:
// "smartmem/internal/sim.(*Kernel).Step" → "smartmem/internal/sim".
func packageOf(symbol string) string {
	// Compiler-generated equality and hash functions belong to the type's
	// package: "type:.eq.smartmem/internal/tmem.Key".
	for _, prefix := range []string{"type:.eq.", "type:.hash."} {
		symbol = strings.TrimPrefix(symbol, prefix)
	}
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		// Assembly bodies carry no package: aeshashbody, gcWriteBarrier,
		// memeqbody. They are the runtime's.
		return "runtime"
	}
	return symbol[:slash+1+dot]
}

// sweepLayers are the repo packages a sweep's CPU time is reported under.
var sweepLayers = []string{"sim", "guest", "tmem", "workload", "vdisk", "core", "metrics", "policy", "tkm", "durable", "experiments"}

// layerOf maps an import path to the layer it is reported under: the repo's
// own package name, "runtime" for the Go runtime, "other" for the rest
// (standard library, the benchmark itself).
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "smartmem/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range sweepLayers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuByLayer folds a per-package aggregation into layers.
func cpuByLayer(byPkg map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for pkg, s := range byPkg {
		out[layerOf(pkg)] += s
	}
	return out
}
