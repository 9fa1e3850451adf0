package main

import "time"

// The reference machine's tag and stamp arrays (2 MiB) and its page map
// make its working set about as large as a grid cell's.
const (
	refSets  = 8192
	refWays  = 16
	refPages = 1 << 16
	// refLookups is one reference unit: the rates are simulated accesses
	// per million reference lookups.
	refLookups = 1_000_000
)

// refMachine is a fixed stand-in for the simulator's hot path: a map from
// page to frame in front of a set-associative LRU tag array, driven by a
// pseudo-random address stream. It runs after every timed region and
// measures how fast the host is at that moment. It lives in the benchmark,
// so no change to the program can change its speed; only the host can.
type refMachine struct {
	pages  map[uint64]uint64
	tags   []uint64
	stamps []uint64
	x      uint64
	clock  uint64
	// misses keeps the loop's result live.
	misses uint64
}

func newRefMachine() *refMachine {
	r := &refMachine{
		pages:  make(map[uint64]uint64, refPages),
		tags:   make([]uint64, refSets*refWays),
		stamps: make([]uint64, refSets*refWays),
		x:      0x9E3779B97F4A7C15,
	}
	for p := uint64(0); p < refPages; p++ {
		r.pages[p] = p * 2654435761 % (1 << 24)
	}
	r.run() // fault in the arrays
	return r
}

// run performs refLookups lookups and returns how long they took.
func (r *refMachine) run() time.Duration {
	start := time.Now()
	for i := 0; i < refLookups; i++ {
		r.x ^= r.x << 13
		r.x ^= r.x >> 7
		r.x ^= r.x << 17
		addr := r.x & (refPages<<12 - 1)
		block := r.pages[addr>>12]<<6 | addr>>6&63
		base := int(block%refSets) * refWays
		ways, stamps := r.tags[base:base+refWays], r.stamps[base:base+refWays]
		r.clock++
		victim, hit := 0, false
		for w, t := range ways {
			if t == block {
				stamps[w], hit = r.clock, true
				break
			}
			if stamps[w] < stamps[victim] {
				victim = w
			}
		}
		if !hit {
			ways[victim], stamps[victim] = block, r.clock
			r.misses++
		}
	}
	return time.Since(start)
}
