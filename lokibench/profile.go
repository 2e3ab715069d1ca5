package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Layers, in report order. cpu_share.<layer> rows come from attributing
// each CPU profile sample to the package of its innermost repro frame;
// samples with no repro frame at all (background GC, the scheduler) are
// "gc".
var layers = []string{"campaign", "core", "clock", "chaos", "clocksync", "analysis", "timeline", "transport", "apps", "obs", "gc"}

// layerPackages maps the repro module's packages to layers; a package
// also covers its subpackages.
var layerPackages = map[string]string{
	"repro":                      "campaign", // the Session facade
	"repro/internal/campaign":    "campaign",
	"repro/internal/config":      "campaign",
	"repro/internal/core":        "core",
	"repro/internal/probe":       "core",
	"repro/internal/spec":        "core",
	"repro/internal/faultexpr":   "core",
	"repro/internal/clock":       "clock",
	"repro/internal/vclock":      "clock",
	"repro/internal/chaos":       "chaos",
	"repro/internal/simnet":      "chaos",
	"repro/internal/clocksync":   "clocksync",
	"repro/internal/analysis":    "analysis",
	"repro/internal/predicate":   "analysis",
	"repro/internal/observation": "analysis",
	"repro/internal/measure":     "analysis",
	"repro/internal/timeline":    "timeline",
	"repro/internal/transport":   "transport",
	"repro/app":                  "apps",
	"repro/apps":                 "apps",
	"repro/internal/obs":         "obs",
	"repro/internal/report":      "obs",
}

// layerOf maps a Go package path to its layer, or "" for a package no
// layer covers.
func layerOf(pkg string) string {
	for p := pkg; ; {
		if l, ok := layerPackages[p]; ok {
			return l
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return ""
		}
		p = p[:i]
	}
}

// funcPackage extracts the package path from a symbol name such as
// "repro/internal/core.(*Runtime).NotifyEvent" or "repro.Open".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiations name packages in their type arguments
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// cpuShares attributes a gzipped pprof CPU profile to layers: each
// sample's CPU time goes to the layer of its innermost frame inside the
// repro module, or to "gc" when the stack has none. Frames of the
// benchmark itself ("main.") end the search and count toward no layer,
// but stay in the total, so the shares sum to at most 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	valueIdx := p.sampleTypes - 1 // cpu nanoseconds, after the sample count
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[valueIdx])
		total += v
		byLayer[p.sampleLayer(s)] += v
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = byLayer[l] / total
		}
	}
	return shares, nil
}

// sampleLayer names the layer a sample's CPU time is charged to.
func (p *profile) sampleLayer(s sample) string {
	for _, id := range s.locations { // leaf first
		for _, fid := range p.locations[id] { // inlined callee first
			sym := p.functions[fid]
			if strings.HasPrefix(sym, "main.") {
				return "bench"
			}
			if !strings.HasPrefix(sym, "repro") {
				continue
			}
			if l := layerOf(funcPackage(sym)); l != "" {
				return l
			}
		}
	}
	return "gc"
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	sampleTypes int // values per sample
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> symbol
}

type sample struct {
	locations []uint64
	values    []int64
}

// parseProfile decodes the fields of profile.proto (github.com/google/pprof)
// used above: sample_type=1, sample=2, location=4, function=5,
// string_table=6.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	funcNames := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1:
			return walk(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes++
				}
				return nil
			})
		case 2:
			var s sample
			err := walk(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return varints(w, v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := walk(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5:
			var id, name uint64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, si := range funcNames {
		if si < uint64(len(strs)) {
			p.functions[id] = strs[si]
		}
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v holds a varint
// or fixed value, b a length-delimited payload.
func walk(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value per
// field (wire type 0) or packed into a length-delimited payload.
func varints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
