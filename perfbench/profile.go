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

// layerMetrics lists the per-layer time metrics in report order. Each is the
// CPU time per operation whose innermost repository frame lies in the
// layer's packages; runtime_ms holds the samples with no repository frame on
// the stack (GC workers, the scheduler, the benchmark's own checks). A layer
// the operation does not call reads 0.
var layerMetrics = []string{
	"tensor_ms", "autograd_ms", "nn_ms", "data_ms", "engine_ms", "simnet_ms",
	"monitor_ms", "policy_ms", "lp_ms", "linalg_ms",
	"codec_ms", "transport_ms", "live_ms", "runtime_ms",
}

// layerOfPackage maps the packages under netmax/internal onto the layer
// metrics. The engine layer includes the algorithm behaviors it drives.
var layerOfPackage = map[string]string{
	"tensor":    "tensor_ms",
	"autograd":  "autograd_ms",
	"nn":        "nn_ms",
	"data":      "data_ms",
	"engine":    "engine_ms",
	"core":      "engine_ms",
	"baselines": "engine_ms",
	"simnet":    "simnet_ms",
	"monitor":   "monitor_ms",
	"policy":    "policy_ms",
	"lp":        "lp_ms",
	"linalg":    "linalg_ms",
	"codec":     "codec_ms",
	"transport": "transport_ms",
	"live":      "live_ms",
}

// layerOf returns the layer metric of a fully qualified Go function name, or
// "" when the function is outside the mapped packages.
func layerOf(fn string) string {
	const prefix = "netmax/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	return layerOfPackage[pkg]
}

// layerTimes decodes a gzipped CPU profile as runtime/pprof writes it and
// returns the CPU nanoseconds attributed to each layer metric. Every sample
// goes to the innermost frame, inlined frames included, that belongs to a
// layer, so a layer's time includes the allocation and GC assist work its
// own code triggers.
func layerTimes(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var (
		strs        []string
		sampleTypes []int64 // string index of each sample value's type
		samples     [][]byte
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, nil, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, nil, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, nil, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, nil, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := fields(b, nil, func(n int, v uint64, _ []byte) error {
				switch n {
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
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A Go CPU profile carries two values per sample, samples/count and
	// cpu/nanoseconds.
	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	name := func(fn uint64) string {
		i, ok := funcNames[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	out := map[string]float64{}
	for _, s := range samples {
		var locs []uint64
		var vals []int64
		err := fields(s, samplePacked, func(n int, v uint64, _ []byte) error {
			switch n {
			case 1:
				locs = append(locs, v)
			case 2:
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			return nil, fmt.Errorf("sample has %d values, want at least %d", len(vals), cpu+1)
		}
		layer := "runtime_ms"
	walk:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOf(name(fn)); l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += float64(vals[cpu])
	}
	return out, nil
}

// fields calls f for every varint and length-delimited field of a protobuf
// message: v carries a varint, b a length-delimited payload. The fields
// named in packed hold repeated varints; a packed run of them is unpacked
// into one call per element, so callers need not tell the two encodings
// apart. Fixed-width fields are skipped: the profile fields read here have
// none.
func fields(msg []byte, packed map[int]bool, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if packed[num] {
				for len(b) > 0 {
					v, n := binary.Uvarint(b)
					if n <= 0 {
						return errors.New("profile: bad packed varint")
					}
					b = b[n:]
					if err := f(num, v, nil); err != nil {
						return err
					}
				}
				continue
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// samplePacked names Sample's packed repeated varint fields, location_id
// (1) and value (2).
var samplePacked = map[int]bool{1: true, 2: true}
