package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file folds Go CPU profiles (gzipped profile.proto, as written by
// runtime/pprof) into self time per layer and time per phase. The decoder
// reads only the fields folding needs: sample types, samples, locations
// with their (inlined) lines, functions and the string table.

// layers are the repository packages reported as per-layer self time. A
// sample belongs to its innermost repro/internal/<pkg> frame; a package not
// listed here lands in "other", a sample with no such frame in "runtime".
var layers = []string{
	"cache", "sim", "cpu", "tlb", "walker", "pagetable", "pred", "core",
	"stats", "exp", "trace", "expserve", "arch", "policy", "xhash", "obs",
	"other", "runtime",
}

// phases are the runner phases, identified by the frames in phaseFrames.
var phases = []string{"materialize", "warmup", "fork", "record", "measure", "unattributed"}

// phaseFrames maps a frame to its phase. The innermost marked frame of a
// stack decides, so materializing a trace inside the oracle's record pass
// counts as materialize and forking inside the warm-sharing path as fork.
// The run-path frames mark warmup: whatever a cell does outside the other
// phases. A sample with no marked frame is unattributed, so a renamed
// runner frame grows that bucket instead of shifting time between phases.
var phaseFrames = map[string]string{
	"repro/internal/trace.MaterializeContext":  "materialize",
	"repro/internal/trace.RecordV2Context":     "materialize",
	"repro/internal/exp.(*Runner).recordPass":  "record",
	"repro/internal/sim.(*System).Fork":        "fork",
	"repro/internal/exp.(*Runner).measure":     "measure",
	"repro/internal/exp.(*Runner).runShared":   "warmup",
	"repro/internal/exp.(*Runner).runUncached": "warmup",
	"repro/internal/exp.(*Runner).runCell":     "warmup",
}

// fold accumulates CPU seconds over one or more profiles.
type fold struct {
	total   float64
	byLayer map[string]float64
	byPhase map[string]float64
	cell    map[[2]string]float64 // (layer, phase)
}

func newFold() *fold {
	return &fold{
		byLayer: map[string]float64{},
		byPhase: map[string]float64{},
		cell:    map[[2]string]float64{},
	}
}

// add folds one gzipped CPU profile.
func (f *fold) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t[0]) == "cpu" && p.str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("profile: no cpu/nanoseconds sample type")
	}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return errors.New("profile: sample has too few values")
		}
		secs := float64(s.values[cpu]) / 1e9
		var frames []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		l, ph := layerOf(frames), phaseOf(frames)
		f.total += secs
		f.byLayer[l] += secs
		f.byPhase[ph] += secs
		f.cell[[2]string{l, ph}] += secs
	}
	return nil
}

// layerOf returns the layer of a stack listed innermost frame first.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// phaseOf returns the phase of a stack listed innermost frame first.
func phaseOf(frames []string) string {
	for _, fn := range frames {
		if ph, ok := phaseFrames[fn]; ok {
			return ph
		}
	}
	return "unattributed"
}

// table renders the layer × phase CPU seconds, divided by n, as markdown.
func (f *fold) table(n float64) string {
	var b strings.Builder
	b.WriteString("| layer | total s | share |")
	for _, ph := range phases {
		b.WriteString(" " + ph + " |")
	}
	b.WriteString("\n|---|---|---|" + strings.Repeat("---|", len(phases)) + "\n")
	rows := append([]string(nil), layers...)
	sort.SliceStable(rows, func(i, j int) bool { return f.byLayer[rows[i]] > f.byLayer[rows[j]] })
	for _, l := range rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% |", l, f.byLayer[l]/n, 100*f.byLayer[l]/f.total)
		for _, ph := range phases {
			fmt.Fprintf(&b, " %.3f |", f.cell[[2]string{l, ph}]/n)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "| all | %.3f | 100%% |", f.total/n)
	for _, ph := range phases {
		fmt.Fprintf(&b, " %.3f |", f.byPhase[ph]/n)
	}
	b.WriteString("\n")
	return b.String()
}

// profile is the decoded subset of profile.proto.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped (or, failing the gzip header, raw)
// profile.proto message.
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
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
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
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			if wire != 2 {
				return errors.New("profile: string_table is not length-delimited")
			}
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = varint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("profile: truncated fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[w:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint; n <= 0 means malformed input.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
