package main

// Crossbar kernel metrics for the traced run: Tile.MVMBatch and
// Tile.Program timed on one 256×256 8-bit weight panel, the shape of the
// reference MLP's hidden layers.

import (
	"math/rand"
	"time"

	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/noise"
)

const (
	panelDim   = 256
	panelBatch = 64
	kernelReps = 9 // timed calls per measurement; the median is reported
)

// kernelMetrics times the functional and the noisy bit-serial batch
// kernels and the panel's programming. MACs per call come from the shape:
// panelDim² per item.
func kernelMetrics(seed int64) (map[string]metric, error) {
	rng := rand.New(rand.NewSource(seed))
	w := randomInputs(rng, panelDim, panelDim)
	inputs := randomInputs(rng, panelBatch, panelDim)
	nss := make([]noise.Source, panelBatch)
	for i := range nss {
		nss[i] = noise.NewSource(seed).Derive(uint64(i))
	}

	functional := dpe.DefaultConfig().Crossbar
	noisy := functional
	noisy.Functional = false
	noisy.ReadNoise = 0.02

	out := map[string]metric{}
	for _, k := range []struct {
		name string
		cfg  crossbar.Config
		nss  []noise.Source
	}{{"functional", functional, nil}, {"noisy", noisy, nss}} {
		tile, err := crossbar.NewTile(k.cfg)
		if err != nil {
			return nil, err
		}
		programs, err := timeCalls(func() error { _, err := tile.Program(w); return err })
		if err != nil {
			return nil, err
		}
		if k.name == "noisy" {
			out["crossbar.program_ms"] = metric{programs / 1e6, "ms"}
		}
		ns, err := timeCalls(func() error { _, _, err := tile.MVMBatch(inputs, k.nss); return err })
		if err != nil {
			return nil, err
		}
		out["crossbar.ns_per_item."+k.name] = metric{ns / panelBatch, "ns"}
		out["crossbar.gmac_per_s."+k.name] = metric{panelDim * panelDim * panelBatch / ns, "GMAC/s"}
	}
	return out, nil
}

// timeCalls runs fn once to warm up, then kernelReps times, and returns
// the median wall time of one call in ns.
func timeCalls(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ts := make([]float64, kernelReps)
	for i := range ts {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ts), nil
}
