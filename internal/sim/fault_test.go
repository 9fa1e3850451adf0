package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/internal/trace"
)

// TestCheckpointSurvivesNoInjectedFault sanity-checks the harness itself:
// the fault wrappers set to fire past the end of the data must be inert.
func TestCheckpointSurvivesNoInjectedFault(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.WriteCheckpoint(&ck, w.Name); err != nil {
		t.Fatal(err)
	}
	rest := newCkptSystem(t)
	r := faultio.NewFailingReader(bytes.NewReader(ck.Bytes()), int64(ck.Len())+1, nil)
	if _, err := rest.ReadCheckpoint(r); err != nil {
		t.Fatalf("restore through an inert fault wrapper failed: %v", err)
	}
}

// TestCheckpointRestoreInjectedFaults: a checkpoint whose read dies
// mid-stream, is truncated, or has a corrupted byte must fail restore with
// an error — never panic, never silently restore partial state.
func TestCheckpointRestoreInjectedFaults(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.WriteCheckpoint(&ck, w.Name); err != nil {
		t.Fatal(err)
	}
	raw := ck.Bytes()

	t.Run("read error mid-stream", func(t *testing.T) {
		rest := newCkptSystem(t)
		r := faultio.NewFailingReader(bytes.NewReader(raw), int64(len(raw)/3), nil)
		if _, err := rest.ReadCheckpoint(r); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("err = %v, want wrapped faultio.ErrInjected", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		rest := newCkptSystem(t)
		if _, err := rest.ReadCheckpoint(faultio.Truncate(bytes.NewReader(raw), int64(len(raw)-9))); err == nil {
			t.Fatal("truncated checkpoint restored")
		}
	})
	t.Run("corrupt magic", func(t *testing.T) {
		rest := newCkptSystem(t)
		if _, err := rest.ReadCheckpoint(faultio.NewCorruptReader(bytes.NewReader(raw), 1)); err == nil {
			t.Fatal("corrupt-magic checkpoint restored")
		}
	})
}

// TestCheckpointWriteFullDisk: a sink that fills mid-write must surface the
// error from WriteCheckpoint.
func TestCheckpointWriteFullDisk(t *testing.T) {
	s := newCkptSystem(t)
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(w.New(s.cfg.Seed), 20_000); err != nil {
		t.Fatal(err)
	}
	sink := faultio.NewFailingWriter(nil, 512, nil)
	if err := s.WriteCheckpoint(sink, w.Name); !errors.Is(err, faultio.ErrNoSpace) {
		t.Fatalf("err = %v, want wrapped faultio.ErrNoSpace", err)
	}
}

// TestRunContextCancellation: a canceled context must stop the simulation
// at a stride boundary with the context's error, and an uncancelable
// context must run to completion.
func TestRunContextCancellation(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}

	s := MustNew(smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.RunContext(ctx, w.New(1), 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext err = %v, want context.Canceled", err)
	}
	if want := fmt.Sprintf("sim: canceled at access 0 of %d: %v", 1_000_000, context.Canceled); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}

	s2 := MustNew(smallConfig())
	if err := s2.RunContext(context.Background(), w.New(1), 50_000); err != nil {
		t.Fatalf("background RunContext err = %v", err)
	}

	// Canceled mid-run, from inside the generator: the run stops at the
	// next stride boundary, after simulating exactly the accesses before it.
	buf, err := trace.Materialize(w.New(1), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	g := &cancelAt{Generator: buf.Reader(), at: ctxCheckStride + 7, cancel: cancel}
	s3 := MustNew(smallConfig())
	err = s3.RunContext(ctx, g, 1_000_000)
	if want := fmt.Sprintf("sim: canceled at access %d of %d: %v", 2*ctxCheckStride, 1_000_000, context.Canceled); err == nil || err.Error() != want {
		t.Errorf("mid-run cancel err = %v, want %q", err, want)
	}
	if got := s3.accesses; got != 2*ctxCheckStride {
		t.Errorf("simulated %d accesses before stopping, want %d", got, 2*ctxCheckStride)
	}
}

// cancelAt passes a generator through and cancels a context when the
// at-th access is drawn.
type cancelAt struct {
	trace.Generator
	n, at  int
	cancel context.CancelFunc
}

func (g *cancelAt) Next() trace.Access {
	if g.n++; g.n == g.at {
		g.cancel()
	}
	return g.Generator.Next()
}

// TestRunSurfacesGeneratorError: feeding the simulator from a replayer
// over a truncated trace must fail the run with the replayer's latched
// error, not quietly simulate the repeated final record.
func TestRunSurfacesGeneratorError(t *testing.T) {
	w, err := trace.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := trace.Record(&rec, w.New(1), 1_000); err != nil {
		t.Fatal(err)
	}
	raw := rec.Bytes()
	rp, err := trace.NewReplayer(faultio.Truncate(bytes.NewReader(raw), int64(len(raw)-11)), false)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(smallConfig())
	err = s.Run(rp, 1_000)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want the replayer's latched truncation error", err)
	}
}

// TestRunBufferEmptySource: an empty in-memory buffer and an empty DPBF v2
// stream must fail the run with the source's latched "no records" error,
// not simulate the zero access they return.
func TestRunBufferEmptySource(t *testing.T) {
	empty := trace.NewBuffer("empty", 0)
	var v2 bytes.Buffer
	if _, err := empty.WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.OpenChunked(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]trace.Generator{
		"empty buffer": empty.Reader(),
		"empty v2":     ct.NewReader(),
	} {
		err := MustNew(smallConfig()).Run(g, 100)
		if want := "sim: after 100 accesses: trace: no records"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// TestRunBufferContextCanceled: a pre-canceled context must stop a run over
// an in-memory buffer before its first access, with the same error shape
// as any other source.
func TestRunBufferContextCanceled(t *testing.T) {
	w, err := trace.ByName("sssp")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.Materialize(w.New(3), 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := MustNew(smallConfig())
	err = s.RunContext(ctx, buf.Reader(), 1<<20)
	if err == nil {
		t.Fatal("canceled context did not stop the run")
	}
	if want := fmt.Sprintf("sim: canceled at access 0 of %d: %v", 1<<20, context.Canceled); err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if s.accesses != 0 {
		t.Errorf("simulated %d accesses after a pre-canceled start, want 0", s.accesses)
	}
}
