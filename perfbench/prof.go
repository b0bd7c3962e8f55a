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

// profPackages are the program's layers that prof.<pkg>.share reports.
// Samples whose innermost repository frame is in another internal
// package (bench, workload, metrics, ...) count as prof.other.share;
// samples with no repository frame count as prof.runtime.share.
var profPackages = []string{
	"buddy", "mem", "pagetable", "tlb", "rangetable", "vm", "core", "memfs",
	"usermode", "heap", "tier", "sim", "check", "ckpt", "snapshot",
}

const repoPrefix = "repro/internal/"

// profiler is one running CPU profile, written to memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() *profiler {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		panic(fmt.Sprintf("perfbench: start CPU profile: %v", err))
	}
	return p
}

// stop ends the profile and attributes its samples to layers.
func (p *profiler) stop() profShares {
	pprof.StopCPUProfile()
	s, err := attribute(p.buf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("perfbench: parse CPU profile: %v", err))
	}
	return s
}

// profShares counts CPU-profile samples per layer.
type profShares struct {
	samples int64
	byPkg   map[string]int64 // package name, "other" or "runtime"
}

func (s *profShares) add(o profShares) {
	if s.byPkg == nil {
		s.byPkg = map[string]int64{}
	}
	s.samples += o.samples
	for k, v := range o.byPkg {
		s.byPkg[k] += v
	}
}

// shares returns the prof.* metrics: each layer's share of samples and
// the sample count the shares rest on.
func (s profShares) shares() map[string]float64 {
	out := map[string]float64{"prof.samples": float64(s.samples)}
	for _, p := range append(append([]string(nil), profPackages...), "other", "runtime") {
		out["prof."+p+".share"] = ratio(float64(s.byPkg[p]), float64(s.samples))
	}
	return out
}

// layerOf maps a function name to the layer a sample in it counts
// toward, or "" when the function is not in the repository.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, p := range profPackages {
		if p == pkg {
			return p
		}
	}
	return "other"
}

// attribute parses a gzipped pprof CPU profile with the standard
// library alone and counts each sample toward the innermost
// repository frame on its stack (inlined frames included), so map and
// allocation work counts toward the layer that caused it.
func attribute(gz []byte) (profShares, error) {
	out := profShares{byPkg: map[string]int64{}}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return out, err
	}
	funcs := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && int(f.name) < len(p.strings) {
			funcs[f.id] = p.strings[f.name]
		}
	}
	locLayer := map[uint64]string{}
	for _, l := range p.locations {
		for _, fid := range l.funcIDs { // innermost first
			if layer := layerOf(funcs[fid]); layer != "" {
				locLayer[l.id] = layer
				break
			}
		}
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample count
		layer := "runtime"
		for _, lid := range s.locIDs { // leaf first
			if l, ok := locLayer[lid]; ok {
				layer = l
				break
			}
		}
		out.samples += n
		out.byPkg[layer] += n
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) that
// attribution needs.
type rawProfile struct {
	samples   []rawSample
	locations []rawLocation
	functions []rawFunction
	strings   []string
}

type rawSample struct {
	locIDs []uint64
	values []int64
}

type rawLocation struct {
	id      uint64
	funcIDs []uint64 // from the location's lines, innermost first
}

type rawFunction struct {
	id   uint64
	name int64 // string table index
}

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locIDs, wire, v, d)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var l rawLocation
			err := eachField(data, func(num int, wire int, v uint64, d []byte) error {
				switch {
				case num == 1:
					l.id = v
				case num == 4 && wire == 2: // line
					return eachField(d, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							l.funcIDs = append(l.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case 5: // function
			var f rawFunction
			err := eachField(data, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = int64(v)
				}
				return nil
			})
			p.functions = append(p.functions, f)
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in data.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
