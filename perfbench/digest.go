package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sim"
)

// pinnedSeed is the seed whose results pins.json records.
const pinnedSeed = 1

// pinsPath is where --write-pins writes, relative to the repository root.
var pinsPath = filepath.Join("perfbench", "pins.json")

//go:embed pins.json
var pinsJSON []byte

// pinFile is the layout of pins.json: every cell's result digest at the
// pinned seed, keyed by cell name ("workload/setup"). A cell that appears in
// two benchmark workloads (an in-memory and a streamed grid) shares its pin,
// so the two trace planes are also checked against each other.
type pinFile struct {
	Seed  uint64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

var pins = mustLoadPins()

func mustLoadPins() map[string]string {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	if f.Seed != pinnedSeed {
		panic(fmt.Sprintf("perfbench: pins.json pins seed %d, want %d", f.Seed, pinnedSeed))
	}
	return f.Cells
}

// cellDigest is one cell's SHA-256 result digest.
type cellDigest struct {
	name   string
	digest string
	err    bool
}

type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digester) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultDigest hashes every simulated field of a cell's result that the
// benchmark's setups produce. Floats hash by bit pattern: a simulator
// speed-up must leave them bit-identical.
func resultDigest(r sim.Result) string {
	d := newDigester()
	d.u64(r.Instructions, r.MemAccesses)
	d.f64(r.Cycles, r.IPC)
	d.u64(r.LLTLookups, r.LLTMisses, r.Walks, r.ShadowFills, r.LLTBypasses)
	d.f64(r.LLTMPKI)
	d.u64(r.LLCLookups, r.LLCMisses, r.LLCBypasses)
	d.f64(r.LLCMPKI)
	d.u64(r.PTAccesses, r.WalkCycles, r.WalkQueueCycles)
	d.u64(r.L1DLookups, r.L1DMisses, r.L2Lookups, r.L2Misses)
	d.u64(r.ITLBLookups, r.ITLBMisses, r.DTLBLookups, r.DTLBMisses)
	d.u64(r.PWCHits[:]...)
	d.u64(r.FullWalks)
	d.f64(r.AvgMemLatency)
	d.u64(r.LLTAccuracy.Correct, r.LLTAccuracy.Wrong, r.LLTAccuracy.TrueDOA)
	d.u64(r.LLCAccuracy.Correct, r.LLCAccuracy.Wrong, r.LLCAccuracy.TrueDOA)
	return d.sum()
}

// workloadDigest hashes the ordered cell digests of one round.
func workloadDigest(cells []cellDigest) string {
	d := newDigester()
	for _, c := range cells {
		d.h.Write([]byte(c.name + "\x00" + c.digest + "\x00"))
	}
	return d.sum()
}

// pinWorkload runs one round at the pinned seed and records its cell
// digests in pins.json, keeping the pins of other workloads' cells.
func pinWorkload(w workload, seed uint64) error {
	if seed != pinnedSeed {
		return fmt.Errorf("pins record seed %d only", pinnedSeed)
	}
	var cells []cellDigest
	for kind := 0; kind < w.kinds(); kind++ {
		out, err := runOnce(w, kind)
		if err != nil {
			return err
		}
		cells = append(cells, out.cells...)
	}
	f := pinFile{Seed: pinnedSeed, Cells: make(map[string]string, len(pins)+len(cells))}
	for k, v := range pins {
		f.Cells[k] = v
	}
	for _, c := range cells {
		if c.err {
			return fmt.Errorf("cell %s failed; nothing pinned", c.name)
		}
		if old, ok := f.Cells[c.name]; ok && old != c.digest {
			fmt.Fprintf(os.Stderr, "perfbench: re-pinning %s: %s -> %s\n", c.name, old, c.digest)
		}
		f.Cells[c.name] = c.digest
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pinsPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %d cells of %s in %s\n", len(cells), workloadDigest(cells), pinsPath)
	return nil
}

// runOnce runs one untimed iteration of the given kind.
func runOnce(w workload, kind int) (iterOut, error) {
	if err := w.setUp(kind); err != nil {
		w.tearDown()
		return iterOut{}, err
	}
	defer w.tearDown()
	if err := w.run(); err != nil {
		return iterOut{}, err
	}
	return w.collect()
}
