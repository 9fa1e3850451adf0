package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs. An access is one simulated
// memory reference; the rates are host throughput, timed in units of a
// million reference lookups (see refMachine) rather than in seconds.
var endToEnd = []metricDef{
	{"accesses_per_mref", "1/Mref", "higher"},
	{"accesses_per_cpu_mref", "1/Mref", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of traced runs. CPU and wall times are per
// round of the workload's loop (one pass over its whole grid); counts are
// per round too, and each ratio is listed next to its base count.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_cpu_s", "s", "lower"})
	}
	for _, ph := range phases {
		defs = append(defs, metricDef{"exp.phase_" + ph + "_cpu_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"traced.profile_cpu_s", "s", "lower"},
		{"traced.overhead_frac", "ratio", "lower"},
		{"host.accesses_per_s", "1/s", "higher"},
		{"host.ref_lookups_per_s", "1/s", "higher"},
		{"sim.logical_accesses", "count", "higher"},
		{"sim.measured_accesses", "count", "higher"},
		{"cache.l1d_miss_ratio", "ratio", "lower"},
		{"cache.l1d_lookups", "count", "lower"},
		{"cache.l2_miss_ratio", "ratio", "lower"},
		{"cache.l2_lookups", "count", "lower"},
		{"cache.llc_miss_ratio", "ratio", "lower"},
		{"cache.llc_lookups", "count", "lower"},
		{"cache.llc_misses", "count", "lower"},
		{"tlb.dtlb_miss_ratio", "ratio", "lower"},
		{"tlb.dtlb_lookups", "count", "lower"},
		{"tlb.llt_miss_ratio", "ratio", "lower"},
		{"tlb.llt_lookups", "count", "lower"},
		{"tlb.llt_misses", "count", "lower"},
		{"walker.walks_per_kaccess", "1/kaccess", "lower"},
		{"walker.walks", "count", "lower"},
		{"walker.pwc_hit_ratio", "ratio", "higher"},
		{"walker.pwc_lookups", "count", "lower"},
		{"core.llt_bypass_ratio", "ratio", "higher"},
		{"core.llc_bypass_ratio", "ratio", "higher"},
		{"exp.cells", "count", "higher"},
		{"exp.cells_simulated", "count", "lower"},
		{"exp.memo_hits", "count", "higher"},
		{"exp.cell_s_p50", "s", "lower"},
		{"exp.cell_s_max", "s", "lower"},
		{"exp.pool_busy_frac", "ratio", "higher"},
		{"exp.resume_s", "s", "lower"},
		{"trace.v2_bytes_per_access", "B", "lower"},
		{"trace.recorded_accesses", "count", "higher"},
		{"expserve.memo_put_s", "s", "lower"},
		{"expserve.memo_get_s", "s", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		{"runtime.max_rss_mb", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
	}...)
}()

// layerCounts sums the simulated counters the layers expose through
// sim.Result.
type layerCounts struct {
	measured                           uint64
	l1dLookups, l1dMisses              uint64
	l2Lookups, l2Misses                uint64
	llcLookups, llcMisses, llcBypasses uint64
	dtlbLookups, dtlbMisses            uint64
	lltLookups, lltMisses, lltBypasses uint64
	walks, pwcHits, fullWalks          uint64
}

func (c *layerCounts) add(r sim.Result) {
	c.measured += r.MemAccesses
	c.l1dLookups += r.L1DLookups
	c.l1dMisses += r.L1DMisses
	c.l2Lookups += r.L2Lookups
	c.l2Misses += r.L2Misses
	c.llcLookups += r.LLCLookups
	c.llcMisses += r.LLCMisses
	c.llcBypasses += r.LLCBypasses
	c.dtlbLookups += r.DTLBLookups
	c.dtlbMisses += r.DTLBMisses
	c.lltLookups += r.LLTLookups
	c.lltMisses += r.LLTMisses
	c.lltBypasses += r.LLTBypasses
	c.walks += r.Walks
	for _, h := range r.PWCHits {
		c.pwcHits += h
	}
	c.fullWalks += r.FullWalks
}

// ratio is num/den, or 0 when the base is 0 (the base is reported too).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c layerCounts) record(m map[string]float64) {
	m["sim.measured_accesses"] = float64(c.measured)
	m["cache.l1d_miss_ratio"] = ratio(c.l1dMisses, c.l1dLookups)
	m["cache.l1d_lookups"] = float64(c.l1dLookups)
	m["cache.l2_miss_ratio"] = ratio(c.l2Misses, c.l2Lookups)
	m["cache.l2_lookups"] = float64(c.l2Lookups)
	m["cache.llc_miss_ratio"] = ratio(c.llcMisses, c.llcLookups)
	m["cache.llc_lookups"] = float64(c.llcLookups)
	m["cache.llc_misses"] = float64(c.llcMisses)
	m["tlb.dtlb_miss_ratio"] = ratio(c.dtlbMisses, c.dtlbLookups)
	m["tlb.dtlb_lookups"] = float64(c.dtlbLookups)
	m["tlb.llt_miss_ratio"] = ratio(c.lltMisses, c.lltLookups)
	m["tlb.llt_lookups"] = float64(c.lltLookups)
	m["tlb.llt_misses"] = float64(c.lltMisses)
	m["walker.walks_per_kaccess"] = 1000 * ratio(c.walks, c.measured)
	m["walker.walks"] = float64(c.walks)
	m["walker.pwc_hit_ratio"] = ratio(c.pwcHits, c.pwcHits+c.fullWalks)
	m["walker.pwc_lookups"] = float64(c.pwcHits + c.fullWalks)
	m["core.llt_bypass_ratio"] = ratio(c.lltBypasses, c.lltMisses)
	m["core.llc_bypass_ratio"] = ratio(c.llcBypasses, c.llcMisses)
}

// tracedRun runs the loop untraced for half the budget, then under a CPU
// profile for the other half, and reports the per-layer metrics of the
// profiled iterations. Each profile covers exactly one timed region.
func (b *bench) tracedRun(budget time.Duration) (map[string]metricValue, error) {
	plain, _, err := b.loop(budget/2, nil)
	if err != nil {
		return nil, err
	}
	f := newFold()
	var allocBytes, gcCycles uint64
	profiled := func(timed func() error) error {
		var buf bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		err := timed()
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcCycles += uint64(m1.NumGC - m0.NumGC)
		return errors.Join(err, f.add(buf.Bytes()))
	}
	traced, outs, err := b.loop(budget/2, profiled)
	if err != nil {
		return nil, err
	}

	// n counts the profiled rounds, a partial last round by its share.
	kinds := b.w.kinds()
	n := float64(len(traced)) / float64(kinds)
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload does not reach reads 0
	}
	for _, l := range layers {
		m[l+".self_cpu_s"] = f.byLayer[l] / n
	}
	for _, ph := range phases {
		m["exp.phase_"+ph+"_cpu_s"] = f.byPhase[ph] / n
	}
	m["traced.profile_cpu_s"] = f.total / n
	plainRates := rates(plain, kinds)
	m["traced.overhead_frac"] = 1 - rates(traced, kinds).perMref/plainRates.perMref
	m["host.accesses_per_s"] = plainRates.perSecond
	m["host.ref_lookups_per_s"] = plainRates.refPerSecond
	m["runtime.alloc_mb"] = float64(allocBytes) / (1 << 20) / n
	m["runtime.gc_cycles"] = float64(gcCycles) / n
	m["runtime.max_rss_mb"] = maxRSSMB()

	// Every round simulates the same cells, so the counts of the last
	// iteration of each kind stand for all of them.
	var counts layerCounts
	var logical uint64
	for _, o := range outs[len(outs)-kinds:] {
		for _, r := range o.results {
			counts.add(r)
		}
		logical += o.accesses
	}
	m["sim.logical_accesses"] = float64(logical)
	counts.record(m)
	var cellSeconds []float64
	for _, o := range outs {
		for k, v := range o.layer {
			m[k] += v / n
		}
		cellSeconds = append(cellSeconds, o.cellSeconds...)
	}
	var cpu, wall time.Duration
	for _, s := range traced {
		cpu += s.cpu
		wall += s.wall
	}
	busy, longest := 0.0, 0.0
	for _, c := range cellSeconds {
		busy += c
		longest = max(longest, c)
	}
	m["exp.cell_s_p50"] = median(cellSeconds)
	m["exp.cell_s_max"] = longest
	m["exp.pool_busy_frac"] = busy / (jobs * wall.Seconds())
	if bytes, ok := m["trace.v2_bytes"]; ok {
		m["trace.v2_bytes_per_access"] = bytes / m["trace.recorded_accesses"]
		delete(m, "trace.v2_bytes")
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: CPU seconds per round by layer × phase (%.2f profiled rounds; profile %.2fs, getrusage %.2fs)\n%s",
		b.name, b.seed, n, f.total, cpu.Seconds(), f.table(n))
	return emit(perLayer, m)
}
