package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/expserve"
	"repro/internal/obs/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// gridWorkloads are four Table II workloads with different access
// patterns: page-crossing strides, a skewed gather, random swaps (the
// slowest oracle cell) and a pointer chase.
var gridWorkloads = []string{"cactusADM", "pr", "canneal", "mcf"}

// table4Setups are the Table IV columns plus their baseline.
var table4Setups = []string{"baseline", "AIP-TLB", "SHiP-TLB", "dpPred", "iso-storage", "oracle"}

// mainSetups are the setups of Tables IV–VII: Table V's LLC-side
// predictors and the "+acc" accuracy twins of Tables VI and VII, which
// share warm state with their plain setups through the runner's fork path.
var mainSetups = append(append([]string(nil), table4Setups...),
	"AIP-LLC", "SHiP-LLC", "dpPred+cbPred",
	"dpPred+acc", "dpPred-SH+acc", "SHiP-TLB+acc",
	"dpPred+cbPred+acc", "dpPred+cbPred-PF+acc", "SHiP-LLC+acc")

func resolveGrid(workloads, setups []string) ([]trace.Workload, []exp.Setup, error) {
	ws := make([]trace.Workload, len(workloads))
	for i, n := range workloads {
		w, err := trace.ByName(n)
		if err != nil {
			return nil, nil, err
		}
		ws[i] = w
	}
	ss := make([]exp.Setup, len(setups))
	for i, n := range setups {
		s, ok := exp.ResolveSetup(n)
		if !ok {
			return nil, nil, fmt.Errorf("setup %q is not in the catalog", n)
		}
		ss[i] = s
	}
	return ws, ss, nil
}

// cellLog records the runner's progress hooks: how many cells simulated
// and how long each took.
type cellLog struct {
	mu      sync.Mutex
	started int
	elapsed []float64
}

func (l *cellLog) attach(r *exp.Runner) {
	r.ProgressStart = func(string, string) {
		l.mu.Lock()
		l.started++
		l.mu.Unlock()
	}
	r.ProgressDone = func(_, _ string, d time.Duration, _ error) {
		l.mu.Lock()
		l.elapsed = append(l.elapsed, d.Seconds())
		l.mu.Unlock()
	}
}

// gridBench runs exp.Runner.RunGrid over a workload × setup grid at a
// quarter of QuickParams, one row (one trace workload × every setup) per iteration
// with a fresh runner, so that a run holds many short, repeatable timed
// regions instead of a few long ones. Iteration kind k is row k. In
// streamed mode the runner records DPBF v2 traces into a fresh directory
// and writes a fresh expserve.DiskMemo; a second runner then resumes the
// whole row from that memo, timed as exp.resume_s.
type gridBench struct {
	params                    exp.Params
	workloadNames, setupNames []string
	streamed                  bool

	// per iteration
	workload trace.Workload
	setups   []exp.Setup
	runners  []*exp.Runner
	boards   []*serve.Board
	log      *cellLog
	memo     *timedMemo
	dir      string
	resume   time.Duration
}

// paramsScale divides QuickParams' warm-up and measured accesses, so that a
// row takes about two seconds and a run holds several rounds: a rate then
// comes from the median of several timed rows of each kind, not from one
// stretch of the host's speed.
const paramsScale = 4

func newGrid(seed uint64, workloads, setups []string, streamed bool) *gridBench {
	p := exp.QuickParams()
	p.Warmup /= paramsScale
	p.Measure /= paramsScale
	p.Seed = seed
	return &gridBench{params: p, workloadNames: workloads, setupNames: setups, streamed: streamed}
}

func (g *gridBench) kinds() int { return len(g.workloadNames) }

// newRunner builds one runner with the benchmark's pool size and hooks.
func (g *gridBench) newRunner() *exp.Runner {
	r := exp.NewRunner(g.params)
	r.SetJobs(jobs)
	g.log.attach(r)
	b := serve.NewBoard()
	r.Status = b
	g.boards = append(g.boards, b)
	g.runners = append(g.runners, r)
	return r
}

// setUp resolves the row's workload and the grid's setups by name, as a
// command line does, and builds the runners: one, or two when streamed.
func (g *gridBench) setUp(kind int) error {
	g.runners, g.boards, g.log, g.memo = nil, nil, &cellLog{}, nil
	ws, ss, err := resolveGrid(g.workloadNames[kind:kind+1], g.setupNames)
	if err != nil {
		return err
	}
	g.workload, g.setups = ws[0], ss
	g.newRunner()
	if g.streamed {
		g.newRunner()
	}
	return nil
}

// openDirs creates the streamed grid's fresh trace directory and memo and
// hands them to the runners. It runs in the timed region, not in set-up:
// on a 2-vCPU VM with an ext4 disk, creating them took anywhere from 60 to
// 240 µs from one second to the next, too unsteady for a bounded set-up
// figure, while next to a row's seconds it is lost in the rate.
func (g *gridBench) openDirs() error {
	if err := os.MkdirAll(runRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(runRoot, "grid-streamed-")
	if err != nil {
		return err
	}
	g.dir = dir
	traces, memoDir := filepath.Join(dir, "traces"), filepath.Join(dir, "memo")
	if err := os.Mkdir(traces, 0o755); err != nil {
		return err
	}
	m, err := expserve.OpenDiskMemo(memoDir)
	if err != nil {
		return err
	}
	g.memo = &timedMemo{m: m}
	for _, r := range g.runners {
		r.SetTraceDir(traces)
		r.Memo = g.memo
	}
	return nil
}

func (g *gridBench) run() error {
	if g.streamed {
		if err := g.openDirs(); err != nil {
			return err
		}
	}
	// A failing cell is not fatal: collect counts it as failed.
	ws := []trace.Workload{g.workload}
	_ = g.runners[0].RunGrid(ws, g.setups)
	if g.streamed {
		resumeStart := time.Now()
		_ = g.runners[1].RunGrid(ws, g.setups)
		g.resume = time.Since(resumeStart)
	}
	return nil
}

func (g *gridBench) collect() (iterOut, error) {
	if g.streamed && g.memo == nil {
		return iterOut{}, fmt.Errorf("grid-streamed: no trace directory or memo")
	}
	out := iterOut{layer: map[string]float64{}}
	memoHits := 0
	for _, b := range g.boards {
		memoHits += int(b.Status().MemoHits)
	}
	out.layer["exp.cells"] = float64(len(g.runners) * len(g.setups))
	out.layer["exp.cells_simulated"] = float64(g.log.started)
	out.layer["exp.memo_hits"] = float64(memoHits)
	out.cellSeconds = g.log.elapsed
	n := g.params.Warmup + g.params.Measure
	for ri, r := range g.runners {
		for _, su := range g.setups {
			c := cellDigest{name: g.workload.Name + "/" + su.Name}
			out.accesses += n
			res, err := r.Run(g.workload, su)
			if err != nil {
				c.err = true
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			} else {
				c.digest = resultDigest(res)
				if ri == 0 {
					out.results = append(out.results, res)
				}
			}
			out.cells = append(out.cells, c)
		}
	}
	if g.streamed {
		out.layer["exp.resume_s"] = g.resume.Seconds()
		g.memo.record(out.layer)
		bytes, err := dirBytes(filepath.Join(g.dir, "traces"), ".dpbf")
		if err != nil {
			return out, err
		}
		out.layer["trace.recorded_accesses"] = float64(n)
		out.layer["trace.v2_bytes"] = float64(bytes)
	}
	return out, nil
}

func (g *gridBench) tearDown() {
	if g.dir != "" {
		// A directory left behind costs disk space only: every
		// iteration records into a fresh one.
		_ = os.RemoveAll(g.dir)
		g.dir = ""
	}
	g.runners, g.boards = nil, nil
}

// timedMemo times the runner's persistent-memo seam (exp.CellMemo) around
// an expserve.DiskMemo.
type timedMemo struct {
	m        *expserve.DiskMemo
	mu       sync.Mutex
	get, put time.Duration
}

func (t *timedMemo) Get(key string) (sim.Result, bool, error) {
	start := time.Now()
	res, ok, err := t.m.Get(key)
	t.add(&t.get, time.Since(start))
	return res, ok, err
}

func (t *timedMemo) Put(key string, meta exp.CellMeta, res sim.Result) error {
	start := time.Now()
	err := t.m.Put(key, meta, res)
	t.add(&t.put, time.Since(start))
	return err
}

func (t *timedMemo) add(total *time.Duration, d time.Duration) {
	t.mu.Lock()
	*total += d
	t.mu.Unlock()
}

func (t *timedMemo) record(layer map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	layer["expserve.memo_get_s"] = t.get.Seconds()
	layer["expserve.memo_put_s"] = t.put.Seconds()
}

// dirBytes sums the sizes of the files in dir with the given extension.
func dirBytes(dir, ext string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ext {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
