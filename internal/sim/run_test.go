package sim

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// TestRunContextSteadyStateZeroAlloc: the run loop must not allocate once
// the machine is warm. The context is cancelable so the stride-masked
// cancellation check is exercised too.
func TestRunContextSteadyStateZeroAlloc(t *testing.T) {
	w, err := trace.ByName("sssp")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.Materialize(w.New(5), 8192)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := MustNew(smallConfig())
	rd := buf.Reader()
	// Warm every structure and map every page the trace touches.
	if err := s.RunContext(ctx, rd, 64_000); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := s.RunContext(ctx, rd, 8192); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state RunContext allocated %.1f times per run, want 0", avg)
	}
}

// replayBenchBuffer builds a locality-heavy replay trace: a handful of PC
// sites sweeping sequentially over a 16 KiB window — a hot kernel loop
// whose working set is L1-resident, so once warm every structure hits and
// the measurement isolates the hit-path cost (generator dispatch, record
// reconstruction, repeated associative lookups) from miss handling.
func replayBenchBuffer(tb testing.TB) *trace.Buffer {
	tb.Helper()
	const n = 1 << 16
	b := trace.NewBuffer("replay-warm", n)
	for i := 0; i < n; i++ {
		pc := 0x400000 + uint64(i&7)*4
		va := 0x10000000 + uint64(i*8)&(1<<14-1)
		b.Append(trace.Access{PC: pc, Addr: arch.VAddr(va), Gap: 1, Write: i&15 == 0})
	}
	return b
}

// BenchmarkStepWarmReplay: per-access replay cost of a warm machine on
// the locality-heavy buffer.
func BenchmarkStepWarmReplay(b *testing.B) {
	s := MustNew(DefaultConfig())
	buf := replayBenchBuffer(b)
	rd := buf.Reader()
	if err := s.Run(rd, buf.Len()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(rd.Next()); err != nil {
			b.Fatal(err)
		}
	}
}
