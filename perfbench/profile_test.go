package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(num int, v uint64) {
	p.varint(uint64(num) << 3)
	p.varint(v)
}

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(num, inner.b)
}

// synthProfile builds a gzipped CPU profile. Each stack lists frames
// innermost first; a frame "a|b" is one location whose lines inline a into
// b. Every sample is worth ms milliseconds of CPU.
func synthProfile(t *testing.T, stacks [][]string, ms []int64, packed bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.uint(1, strIdx(st[0]))
		vt.uint(2, strIdx(st[1]))
		msg.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	funcID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var fn pb
		fn.uint(1, id)
		fn.uint(2, strIdx(name))
		msg.bytes(5, fn.b)
		return id
	}
	locs := map[string]uint64{}
	locID := func(frame string) uint64 {
		if id, ok := locs[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locs[frame] = id
		var loc pb
		loc.uint(1, id)
		for _, name := range bytes.Split([]byte(frame), []byte("|")) {
			var line pb
			line.uint(1, funcID(string(name)))
			line.uint(2, 42)
			loc.bytes(4, line.b)
		}
		msg.bytes(4, loc.b)
		return id
	}
	for i, stack := range stacks {
		var ids []uint64
		for _, frame := range stack {
			ids = append(ids, locID(frame))
		}
		var s pb
		if packed {
			s.packed(1, ids...)
		} else {
			for _, id := range ids {
				s.uint(1, id)
			}
		}
		s.packed(2, 1, uint64(ms[i])*1e6)
		msg.bytes(2, s.b)
	}
	for _, s := range strs {
		msg.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const (
	runUncached = "repro/internal/exp.(*Runner).runUncached"
	runShared   = "repro/internal/exp.(*Runner).runShared"
)

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// cache hit path under measure
		{"repro/internal/cache.(*Cache).Lookup", "repro/internal/sim.(*System).Step",
			"repro/internal/exp.(*Runner).measure", runUncached},
		// map time lands on the calling layer; the oracle's record pass
		{"runtime.mapaccess2_fast64", "repro/internal/pagetable.(*PageTable).Translate",
			"repro/internal/sim.(*System).Step", "repro/internal/exp.(*Runner).recordPass", runUncached},
		// an inlined helper is the innermost frame of its location
		{"repro/internal/arch.BlockIndex|repro/internal/cache.(*Cache).Fill",
			"repro/internal/sim.(*System).Fork", runShared},
		// the innermost phase frame decides: materializing inside the record pass
		{"repro/internal/trace.(*mixGen).Next", "repro/internal/trace.MaterializeContext",
			"repro/internal/exp.(*Runner).generator.func1", "repro/internal/exp.(*Runner).recordPass", runUncached},
		// the warm run of a shared machine is warmup
		{"repro/internal/cpu.(*Core).Issue", "repro/internal/sim.(*System).RunBufferContext", runShared},
		// no repository frame and no phase frame
		{"runtime.gcBgMarkWorker"},
		// a package outside the layer list
		{"repro/internal/ckpt.(*Writer).U64", "main.main"},
	}
	ms := []int64{40, 30, 20, 10, 50, 70, 5}
	wantLayer := map[string]float64{
		"cache": 0.040, "pagetable": 0.030, "arch": 0.020, "trace": 0.010,
		"cpu": 0.050, "runtime": 0.070, "other": 0.005,
	}
	wantPhase := map[string]float64{
		"measure": 0.040, "record": 0.030, "fork": 0.020, "materialize": 0.010,
		"warmup": 0.050, "unattributed": 0.075,
	}
	for _, packed := range []bool{true, false} {
		f := newFold()
		// Two profiles fold into one total, as a traced run's iterations do.
		for range 2 {
			if err := f.add(synthProfile(t, stacks, ms, packed)); err != nil {
				t.Fatalf("packed=%v: %v", packed, err)
			}
		}
		near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
		if !near(f.total, 2*0.225) {
			t.Errorf("packed=%v: total %v, want %v", packed, f.total, 2*0.225)
		}
		for _, l := range layers {
			if !near(f.byLayer[l], 2*wantLayer[l]) {
				t.Errorf("packed=%v: layer %s = %v, want %v", packed, l, f.byLayer[l], 2*wantLayer[l])
			}
		}
		for _, ph := range phases {
			if !near(f.byPhase[ph], 2*wantPhase[ph]) {
				t.Errorf("packed=%v: phase %s = %v, want %v", packed, ph, f.byPhase[ph], 2*wantPhase[ph])
			}
		}
		if got := f.cell[[2]string{"cache", "measure"}]; !near(got, 0.080) {
			t.Errorf("packed=%v: cache × measure = %v, want 0.08", packed, got)
		}
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	for name, data := range map[string][]byte{
		"truncated length": {0x12, 0x05, 0x01},
		"bad varint":       {0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"bad gzip":         {0x1f, 0x8b, 0x00},
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	if err := newFold().add(nil); err == nil {
		t.Error("a profile without a cpu sample type folded without error")
	}
}

var sink uint64

// TestFoldRuntimeProfile folds a real profile written by runtime/pprof: the
// decoder must read the toolchain's encoding, and this test's own frames
// (package main) hold no repository layer.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := uint64(0); i < 1e6; i++ {
			sink = sink*6364136223846793005 + i
		}
	}
	pprof.StopCPUProfile()
	f := newFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.total <= 0 {
		t.Fatal("no CPU samples folded")
	}
	if f.byLayer["runtime"] != f.total || f.byPhase["unattributed"] != f.total {
		t.Errorf("samples outside runtime/unattributed: %v %v", f.byLayer, f.byPhase)
	}
}
