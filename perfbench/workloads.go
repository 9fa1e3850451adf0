package main

import (
	"fmt"
	"path/filepath"
)

// runRoot holds the streamed grid's per-iteration trace and memo
// directories, inside the build directory of the checkout.
var runRoot = filepath.Join(".bench_build", "run")

// workloadNames lists the benchmark's workloads; BENCHMARK.json records
// why each was chosen.
func workloadNames() []string {
	return []string{"grid-main", "grid-streamed"}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "grid-main":
		return newGrid(seed, gridWorkloads, mainSetups, false), nil
	case "grid-streamed":
		return newGrid(seed, gridWorkloads, table4Setups, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}
