// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through its public package APIs (exp, sim, trace, core,
// expserve) on one of two seeded workloads, checks every simulated result
// against a digest pinned for the default seed, and prints the metrics named
// in BENCHMARK.json as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload grid-main --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the same loop untraced for half the time and under a CPU
// profile for the other half, and reports the per-layer metrics: self CPU
// time per repository package, phase CPU time, and the counts and ratios the
// layers' public results expose. Every layer is measured from outside its
// code: by timing calls into it, through the runner's progress, memo and
// status-board hooks, and from the profile.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// jobs is the fixed runner pool size and GOMAXPROCS: the load shape is one
// process simulating on one goroutine, with the garbage collector on the
// same processor, whatever the host's CPU count. Two workers made the rates
// depend on how the host scheduled two busy threads at once and on which
// worker drew the last cell.
const jobs = 1

// Set-up is timed in batches. A batch repeats set-up (and its untimed
// tear-down) until its set-ups add up to minBatchTime, and its value is
// their median: a set-up of a few microseconds is timed thousands of times,
// and a set-up that a garbage collection or a page fault happened to hit
// does not move it. A run times one batch before its loop, one after each
// iteration (starting from that iteration's own set-up) and then more until
// there are minBatches; setup_s is the median batch. Spread over the run,
// the batches see the host's drift the way the rate samples do, not one
// moment of it.
const (
	minBatches   = 5
	minBatchTime = 20 * time.Millisecond
)

// defaultSeconds is the length of a run, as BENCHMARK.json's run_seconds.
const defaultSeconds = 45

// workload is one benchmark workload. Its iterations come in kinds()
// kinds, run in turn; one iteration of each kind is a round. Each iteration
// of the closed loop calls setUp (timed as set-up), run (the timed region),
// collect and tearDown (both untimed).
type workload interface {
	kinds() int
	setUp(kind int) error
	run() error
	collect() (iterOut, error)
	tearDown()
}

// iterOut is what one iteration produced.
type iterOut struct {
	// accesses is the logical number of simulated accesses: Σ over cells
	// of Warmup+Measure, however much the runner shares between cells.
	accesses uint64
	// cells holds each cell's result digest in a fixed order.
	cells []cellDigest
	// failed counts cells that returned an error.
	failed int
	// results holds the simulated result of every cell the iteration
	// simulated (the streamed grid's resumed cells are not repeated).
	results []sim.Result
	// layer holds per-layer measurements taken from outside the layer
	// (hook counts and timings, file sizes). Every value adds up over
	// iterations.
	layer map[string]float64
	// cellSeconds is the runner's time for each simulated cell.
	cellSeconds []float64
}

// sample is one timed iteration.
type sample struct {
	kind      int
	wall, cpu time.Duration
	// ref is how long the reference machine took right after the timed
	// region: the host's speed at that moment.
	ref      time.Duration
	accesses uint64
	// setup is the iteration's own set-up time, outside the timed region.
	setup time.Duration
}

func (s sample) perSecond() float64 { return float64(s.accesses) / s.wall.Seconds() }

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds of timed work to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled run, 0 end-to-end metrics")
	writePins := flag.Bool("write-pins", false, "run one iteration and record its cell digests as the pinned seed-1 results in perfbench/pins.json")
	flag.Parse()

	runtime.GOMAXPROCS(jobs)
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("machine: %s %s/%s nproc=%d gomaxprocs=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	if *writePins {
		if err := pinWorkload(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	b := &bench{w: w, name: *name, seed: *seed, ref: newRefMachine()}
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metricValue
	if *traced == 1 {
		metrics, err = b.tracedRun(budget)
	} else {
		metrics, err = b.untracedRun(budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	digest, verdict := b.digestReport()
	fmt.Printf("digest %s seed=%d %s cells=%d %s\n", *name, *seed, digest, len(b.firstRound()), verdict)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	return 0
}

// bench runs one workload's closed loop and keeps the correctness tally.
type bench struct {
	w    workload
	name string
	seed uint64

	// setups holds the median set-up time of each batch, in seconds.
	setups    []float64
	attempted int
	failed    int
	// first holds each kind's first iteration's cell digests; every later
	// iteration of the kind must reproduce them exactly.
	first [][]cellDigest
	// iterations counts the iterations run; the next one's kind is
	// iterations mod kinds.
	iterations int
	// ref times the host after every timed region.
	ref *refMachine
}

// iterate runs one iteration, timing its set-up and its timed region, and
// checks its cells. around, when set, brackets the timed region.
func (b *bench) iterate(around func(timed func() error) error) (sample, iterOut, error) {
	s := sample{kind: b.iterations % b.w.kinds()}
	b.iterations++
	// Every iteration starts from a collected heap, as a Go benchmark does,
	// so that where the collector's cycles fall, and the heap's peak, do
	// not depend on what the previous iteration left behind.
	runtime.GC()
	start := time.Now()
	if err := b.w.setUp(s.kind); err != nil {
		b.w.tearDown()
		return sample{}, iterOut{}, fmt.Errorf("set-up: %w", err)
	}
	s.setup = time.Since(start)
	defer b.w.tearDown()

	timed := func() error {
		cpu0, wall0 := cpuTime(), time.Now()
		err := b.w.run()
		s.wall, s.cpu = time.Since(wall0), cpuTime()-cpu0
		return err
	}
	var runErr error
	if around != nil {
		runErr = around(timed)
	} else {
		runErr = timed()
	}
	s.ref = b.ref.run()
	out, err := b.w.collect()
	if err != nil {
		return sample{}, iterOut{}, errors.Join(runErr, err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		for i := range out.cells {
			out.cells[i].err = true
		}
		out.failed = len(out.cells)
	}
	s.accesses = out.accesses
	b.check(s.kind, out)
	return s, out, nil
}

// check counts the iteration's cells as attempted and marks as failed every
// cell that errored, that differs from its pinned digest (default seed), or
// that differs from the result of the first iteration of its kind.
func (b *bench) check(kind int, out iterOut) {
	b.attempted += len(out.cells)
	b.failed += out.failed
	if b.first == nil {
		b.first = make([][]cellDigest, b.w.kinds())
	}
	if b.first[kind] == nil {
		b.first[kind] = out.cells
	}
	first := b.first[kind]
	for i, c := range out.cells {
		switch {
		case c.err:
			// already counted in out.failed
		case i >= len(first) || first[i] != c:
			b.failed++
		case b.seed == pinnedSeed && pins[c.name] != c.digest:
			b.failed++
		}
	}
}

// firstRound is the first iteration of every kind's cell digests, in kind
// order.
func (b *bench) firstRound() []cellDigest {
	var cells []cellDigest
	for _, c := range b.first {
		cells = append(cells, c...)
	}
	return cells
}

// digestReport returns the workload digest (over every cell digest of the
// first round, in order) and whether it matches the pinned results.
func (b *bench) digestReport() (string, string) {
	cells := b.firstRound()
	d := workloadDigest(cells)
	if b.seed != pinnedSeed {
		return d, "unpinned-seed"
	}
	for _, c := range cells {
		if pins[c.name] != c.digest {
			return d, "MISMATCH"
		}
	}
	return d, "pinned-match"
}

// loop runs iterations until their timed regions add up to budget, with at
// least one round, so that every kind has a sample.
func (b *bench) loop(budget time.Duration, around func(timed func() error) error) ([]sample, []iterOut, error) {
	var samples []sample
	var outs []iterOut
	var spent time.Duration
	for spent < budget || len(samples) < b.w.kinds() {
		s, out, err := b.iterate(around)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "iteration %d (kind %d): %.3fs wall %.3fs cpu %.0f accesses/s, reference %.4fs\n",
			len(samples)+1, s.kind, s.wall.Seconds(), s.cpu.Seconds(), s.perSecond(), s.ref.Seconds())
		samples = append(samples, s)
		outs = append(outs, out)
		spent += s.wall
		if err := b.setupBatch(s.setup); err != nil {
			return nil, nil, err
		}
	}
	return samples, outs, nil
}

// setupBatch times set-ups, each followed by its tear-down, until together
// with the already timed ones in done they add up to minBatchTime, and
// records the batch's median set-up time.
func (b *bench) setupBatch(done ...time.Duration) error {
	var total time.Duration
	var batch []float64
	for _, d := range done {
		total += d
		batch = append(batch, d.Seconds())
	}
	for len(batch) == 0 || total < minBatchTime {
		start := time.Now()
		err := b.w.setUp(b.iterations % b.w.kinds())
		d := time.Since(start)
		b.w.tearDown()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total += d
		batch = append(batch, d.Seconds())
	}
	b.setups = append(b.setups, median(batch))
	return nil
}

// untracedRun reports the rates of the loop's iterations and the median
// set-up batch.
func (b *bench) untracedRun(budget time.Duration) (map[string]metricValue, error) {
	if err := b.setupBatch(); err != nil {
		return nil, err
	}
	samples, _, err := b.loop(budget, nil)
	if err != nil {
		return nil, err
	}
	for len(b.setups) < minBatches {
		if err := b.setupBatch(); err != nil {
			return nil, err
		}
	}
	r := rates(samples, b.w.kinds())
	fmt.Fprintf(os.Stderr, "set-up: %d batches, median %.6gs\n", len(b.setups), median(b.setups))
	fmt.Fprintf(os.Stderr, "host: %.0f accesses/s, %.0f reference lookups/s\n", r.perSecond, r.refPerSecond)
	return emit(endToEnd, map[string]float64{
		"accesses_per_mref":     r.perMref,
		"accesses_per_cpu_mref": r.perCPUMref,
		"setup_s":               median(b.setups),
	})
}

// runRates are a loop's throughput figures. A round's time is the sum over
// kinds of each kind's median iteration time: kinds differ in accesses and
// speed, so their times are not pooled into one median.
type runRates struct {
	// perMref and perCPUMref are one round's accesses per million
	// reference lookups, with each iteration's wall or CPU time measured
	// in the reference machine's time right after it. The host's speed
	// drifted twofold within an hour on the baseline VM; timed in
	// reference units, that drift cancels and the program's own speed
	// remains.
	perMref, perCPUMref float64
	// perSecond is one round's accesses per wall second, and refPerSecond
	// the reference machine's median lookups per second.
	perSecond, refPerSecond float64
}

func rates(samples []sample, kinds int) runRates {
	type times struct{ wall, relWall, relCPU []float64 }
	byKind := make([]times, kinds)
	accesses := make([]uint64, kinds)
	var refs []float64
	for _, s := range samples {
		t := &byKind[s.kind]
		t.wall = append(t.wall, s.wall.Seconds())
		t.relWall = append(t.relWall, s.wall.Seconds()/s.ref.Seconds())
		t.relCPU = append(t.relCPU, s.cpu.Seconds()/s.ref.Seconds())
		refs = append(refs, s.ref.Seconds())
		accesses[s.kind] = s.accesses
	}
	var n uint64
	var wall, relWall, relCPU float64
	for k, t := range byKind {
		n += accesses[k]
		wall += median(t.wall)
		relWall += median(t.relWall)
		relCPU += median(t.relCPU)
	}
	// One reference run is a million lookups, so a time in reference runs
	// is a time in Mref.
	return runRates{
		perMref:      float64(n) / relWall,
		perCPUMref:   float64(n) / relCPU,
		perSecond:    float64(n) / wall,
		refPerSecond: refLookups / median(refs),
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit attaches units to values and insists that exactly the defined
// metrics are present, so the output cannot drift from BENCHMARK.json.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for k := range values {
			if _, ok := out[k]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", k)
			}
		}
	}
	return out, nil
}
