package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the results
// are judged against, in step with the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var cfg struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}

	if cfg.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, --seconds defaults to %d", cfg.RunSeconds, defaultSeconds)
	}

	names := workloadNames()
	if len(cfg.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(cfg.Workloads), len(names))
	}
	for i, w := range cfg.Workloads {
		if w.Name != names[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, names[i])
		}
		wl, err := newWorkload(w.Name, 1)
		if err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
			continue
		}
		if err := wl.setUp(0); err != nil {
			t.Errorf("workload %s: set-up: %v", w.Name, err)
		}
		wl.tearDown()
	}

	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd, true)
	check("per_layer", cfg.PerLayer, perLayer, false)

	var setupBound, maxOther float64
	for _, m := range cfg.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		} else {
			maxOther = max(maxOther, *m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	for _, cell := range []string{"cactusADM/oracle", "pr/baseline", "canneal/SHiP-LLC+acc", "mcf/dpPred+cbPred-PF+acc"} {
		if len(pins[cell]) != 64 {
			t.Errorf("no SHA-256 pin for %s", cell)
		}
	}
}

// TestLayerMapCoversPerLayerMetrics checks layers.json, the record of which
// end-to-end metric each per-layer metric should move: every per-layer
// metric appears in exactly one row, and rows name only real metrics and
// workloads.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string `json:"moves"`
			HeavyOn      []string `json:"heavy_on"`
			FlatOn       []string `json:"flat_on"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, d := range endToEnd {
		isE2E[d.name] = true
	}
	isWorkload := map[string]bool{}
	for _, w := range workloadNames() {
		isWorkload[w] = true
	}
	seen := map[string]int{}
	for _, row := range doc.Rows {
		for _, m := range row.LayerMetrics {
			seen[m]++
		}
		for _, m := range row.Moves {
			if !isE2E[m] {
				t.Errorf("row %v moves unknown end-to-end metric %q", row.LayerMetrics, m)
			}
		}
		for _, w := range append(append([]string(nil), row.HeavyOn...), row.FlatOn...) {
			if !isWorkload[w] {
				t.Errorf("row %v names unknown workload %q", row.LayerMetrics, w)
			}
		}
	}
	for _, d := range perLayer {
		if seen[d.name] != 1 {
			t.Errorf("%s appears in %d rows of layers.json, want 1", d.name, seen[d.name])
		}
		delete(seen, d.name)
	}
	for m := range seen {
		t.Errorf("layers.json names %q, which is not a per-layer metric", m)
	}
}
