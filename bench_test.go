package cimrev

// Benchmark harness: one benchmark per paper table/figure (E1-E7 in
// DESIGN.md), plus ablation benches for the design choices the simulator
// exposes and micro-benchmarks for the hot substrates.
//
// The per-figure benchmarks report the reproduced quantities through
// b.ReportMetric (simulated-time ratios), while ns/op measures the
// simulator's own execution speed.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cimrev/internal/cim"
	"cimrev/internal/crossbar"
	"cimrev/internal/dataflow"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/experiments"
	"cimrev/internal/fault"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
	"cimrev/internal/security"
	"cimrev/internal/vonneumann"
)

// --- E1: Fig 2 ---

func BenchmarkFig2BytesPerFlop(b *testing.B) {
	var res *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalDecline, "decline_x")
	b.ReportMetric(-res.Slope, "decade_slope")
}

// --- E2: Table 1 ---

func BenchmarkTable1Comparison(b *testing.B) {
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.InMemory.MaxScale), "cim_scale_units")
	b.ReportMetric(res.InMemory.WorkLostPct, "cim_worklost_pct")
	b.ReportMetric(res.InMemory.ReachablePct, "cim_reach_pct")
}

// --- E3: Table 2 ---

func BenchmarkTable2Suitability(b *testing.B) {
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Agreement, "agreement_pct")
}

// --- E4-E6: Section VI latency / bandwidth / power ---

// secVISweep caches the sweep across the three metric benchmarks.
func secVISweep(b *testing.B) *experiments.SecVIResult {
	b.Helper()
	res, err := experiments.SecVI([]int{512, 1024, 2048})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkSecVILatency(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.LatVsCPU, "lat_vs_cpu_x")
	b.ReportMetric(last.LatVsGPU, "lat_vs_gpu_x")
}

func BenchmarkSecVIBandwidth(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.BWVsCPU, "bw_vs_cpu_x")
	b.ReportMetric(last.BWVsGPU, "bw_vs_gpu_x")
}

func BenchmarkSecVIPower(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.PowVsCPU, "pow_vs_cpu_x")
	b.ReportMetric(last.PowVsCPUSingle, "pow_vs_cpu1_x")
	b.ReportMetric(last.PowVsGPU, "pow_vs_gpu_x")
}

// --- E7: Section VI scale ---

func BenchmarkSecVIScale(b *testing.B) {
	var res *experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Scale([]int{1, 4, 8}, 256, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(100*last.Efficiency, "eff8_pct")
	b.ReportMetric(last.UpdateStallPct, "stall_pct")
	b.ReportMetric(last.UpdateHiddenPct, "hidden_pct")
}

// --- Ablations ---

// BenchmarkAblationADCBits sweeps ADC resolution: energy per MVM rises with
// resolution while accuracy improves (see crossbar tests for the accuracy
// side).
func BenchmarkAblationADCBits(b *testing.B) {
	for _, bits := range []int{4, 6, 8, 10} {
		b.Run(benchName("adc", bits), func(b *testing.B) {
			cfg := crossbar.DefaultConfig()
			cfg.Rows, cfg.Cols = 64, 64
			cfg.ADCBits = bits
			cfg.Functional = true
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			w := randomMatrix(rng, 64, 64)
			if _, err := xb.Program(w); err != nil {
				b.Fatal(err)
			}
			in := randomVector(rng, 64)
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cost, err = xb.MVM(in, crossbar.NoNoise)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost.EnergyPJ, "pJ/mvm")
		})
	}
}

// BenchmarkAblationCellBits sweeps bits-per-cell: fewer bits per cell means
// more slice arrays (more parallel hardware, more energy).
func BenchmarkAblationCellBits(b *testing.B) {
	for _, bits := range []int{1, 2, 4} {
		b.Run(benchName("cell", bits), func(b *testing.B) {
			cfg := crossbar.DefaultConfig()
			cfg.Rows, cfg.Cols = 64, 64
			cfg.CellBits = bits
			cfg.Functional = true
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if _, err := xb.Program(randomMatrix(rng, 64, 64)); err != nil {
				b.Fatal(err)
			}
			in := randomVector(rng, 64)
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, cost, err = xb.MVM(in, crossbar.NoNoise)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost.EnergyPJ, "pJ/mvm")
		})
	}
}

// BenchmarkAblationEncryption measures the packet-encryption overhead of
// the Section IV.A security model.
func BenchmarkAblationEncryption(b *testing.B) {
	p := &packet.Packet{
		Type:    packet.TypeData,
		Payload: randomVector(rand.New(rand.NewSource(1)), 128),
	}
	b.Run("plaintext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aes-gcm", func(b *testing.B) {
		kr := security.NewKeyRing()
		key, err := kr.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		var cost energy.Cost
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, c, err := security.Seal(p, key)
			if err != nil {
				b.Fatal(err)
			}
			cost = c
			if _, _, err := security.Open(ct, key); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cost.EnergyPJ, "pJ/seal")
	})
}

// BenchmarkAblationWriteHiding compares reprogram latency with and without
// write-asymmetry hiding.
func BenchmarkAblationWriteHiding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, err := nn.NewDense(256, 256, rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewNetwork("wh", d)
	if err != nil {
		b.Fatal(err)
	}
	for _, hide := range []bool{false, true} {
		name := "stall"
		if hide {
			name = "hidden"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := dpe.New(dpe.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost, err = eng.Reprogram(net, hide)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.LatencyPS)/1e6, "us_simulated")
		})
	}
}

// BenchmarkAblationRedundancy measures failover cost against spare count.
func BenchmarkAblationRedundancy(b *testing.B) {
	b.Run("with-spare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lost := runFailover(b, true)
			b.ReportMetric(lost, "worklost_pct")
		}
	})
	b.Run("no-spare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lost := runFailover(b, false)
			b.ReportMetric(lost, "worklost_pct")
		}
	})
}

func runFailover(b *testing.B, withSpare bool) float64 {
	b.Helper()
	fabric, err := NewFabric(DefaultFabricConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := Address{Tile: 0}
	mid := Address{Tile: 1}
	spare := Address{Tile: 1, Unit: 1}
	sink := Address{Tile: 2}
	for _, a := range []Address{src, mid, spare, sink} {
		if _, err := fabric.AddUnit(a, cim.KindCompute, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := fabric.Connect(src, mid); err != nil {
		b.Fatal(err)
	}
	if err := fabric.Connect(mid, sink); err != nil {
		b.Fatal(err)
	}
	guard, err := fault.NewGuard(fabric, nil)
	if err != nil {
		b.Fatal(err)
	}
	if withSpare {
		if err := guard.AddSpare(mid, spare); err != nil {
			b.Fatal(err)
		}
	}
	const streams = 16
	for i := 0; i < streams; i++ {
		if err := guard.StreamHeld(src, []float64{float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := guard.Fail(mid); err != nil {
		b.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		b.Fatal(err)
	}
	delivered := len(out[sink])
	return 100 * float64(streams-delivered) / streams
}

// --- Substrate micro-benchmarks ---

// BenchmarkCrossbarMVM is the MVM kernel's perf trajectory: a size sweep
// (64-512 rows, 8-bit weights/inputs) in bit-serial, functional, and noisy
// modes, through the zero-allocation MVMInto path. `make bench-json`
// serializes this benchmark into BENCH_mvm.json so future PRs can track
// regressions; docs/PERF.md records the history.
func BenchmarkCrossbarMVM(b *testing.B) {
	run := func(name string, cfg crossbar.Config, n int, ns NoiseSource) {
		b.Run(name, func(b *testing.B) {
			cfg.Rows, cfg.Cols = n, n
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if _, err := xb.Program(randomMatrix(rng, n, n)); err != nil {
				b.Fatal(err)
			}
			in := randomVector(rng, n)
			dst := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xb.MVMInto(dst, in, ns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		base := crossbar.DefaultConfig() // 8b weights, 8b inputs
		run(fmt.Sprintf("%dx%d_8b", n, n), base, n, NoNoise)

		fn := base
		fn.Functional = true
		run(fmt.Sprintf("%dx%d_8b_func", n, n), fn, n, NoNoise)

		noisy := base
		noisy.ReadNoise = 0.02
		run(fmt.Sprintf("%dx%d_8b_noisy", n, n), noisy, n, NewNoiseSource(7))
	}
}

// BenchmarkCrossbarMVMBatch is the GEMM-path trajectory: the batched
// multi-vector kernel (MVMBatchInto) over a size × batch sweep, in
// bit-serial, functional, and noisy (per-item keyed sources) modes. Each
// iteration times the looped MVMInto baseline and the batched kernel
// back to back on the same inputs, so the reported "speedup" metric
// compares the two paths under identical host conditions — immune to the
// CPU-frequency drift that makes cross-benchmark ratios unreliable.
// "ns/vec" is the batched kernel's per-vector time; "looped-ns/vec" the
// baseline's. `make bench-mvm` archives this sweep next to the
// single-vector one in BENCH_mvm.json and gates the deterministic modes
// at batch ≥ 8 and panel ≥ 256 on speedup ≥ 1.5× (see cmd/benchjson
// -gate-batch-speedup; noisy and sub-256 results are structural
// exemptions, docs/PERF.md).
func BenchmarkCrossbarMVMBatch(b *testing.B) {
	run := func(name string, cfg crossbar.Config, n, batch int, noisy bool) {
		b.Run(name, func(b *testing.B) {
			cfg.Rows, cfg.Cols = n, n
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if _, err := xb.Program(randomMatrix(rng, n, n)); err != nil {
				b.Fatal(err)
			}
			ins := make([][]float64, batch)
			dsts := make([][]float64, batch)
			slab := make([]float64, batch*n)
			var nss []NoiseSource
			if noisy {
				root := NewNoiseSource(7)
				nss = make([]NoiseSource, batch)
				for i := range nss {
					nss[i] = root.Derive(uint64(i))
				}
			}
			for i := range ins {
				ins[i] = randomVector(rng, n)
				dsts[i] = slab[i*n : (i+1)*n]
			}
			// Warm the scratch pool outside the timed region so the
			// archived allocs/op reflect steady state (0), not the
			// one-time pool fill.
			if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var loopNS, batchNS int64
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j := range ins {
					ns := NoNoise
					if nss != nil {
						ns = nss[j]
					}
					if _, err := xb.MVMInto(dsts[j], ins[j], ns); err != nil {
						b.Fatal(err)
					}
				}
				t1 := time.Now()
				if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
					b.Fatal(err)
				}
				batchNS += time.Since(t1).Nanoseconds()
				loopNS += t1.Sub(t0).Nanoseconds()
			}
			b.StopTimer() // keep ReportMetric's map work out of allocs/op
			// Per-vector time is what the batch amortizes; report both paths
			// so the archived sweep carries its own like-for-like baseline.
			b.ReportMetric(float64(batchNS)/float64(b.N)/float64(batch), "ns/vec")
			b.ReportMetric(float64(loopNS)/float64(b.N)/float64(batch), "looped-ns/vec")
			if batchNS > 0 {
				b.ReportMetric(float64(loopNS)/float64(batchNS), "speedup")
			}
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		for _, batch := range []int{1, 8, 32, 128} {
			base := crossbar.DefaultConfig() // 8b weights, 8b inputs
			run(fmt.Sprintf("%dx%d_8b_b%d", n, n, batch), base, n, batch, false)

			fn := base
			fn.Functional = true
			run(fmt.Sprintf("%dx%d_8b_func_b%d", n, n, batch), fn, n, batch, false)

			noisy := base
			noisy.ReadNoise = 0.02
			run(fmt.Sprintf("%dx%d_8b_noisy_b%d", n, n, batch), noisy, n, batch, true)
		}
	}
}

// BenchmarkEngineInferBatch tracks the DPE-level batch win — the full
// stage pipeline (quantize, tile dispatch, bias, digital stages) on the
// GEMM path, not just the raw kernel — with allocations reported.
func BenchmarkEngineInferBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("mlp256_b%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net, err := nn.NewMLP("bench", []int{256, 256, 10}, rng)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := dpe.New(dpe.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			inputs := make([][]float64, batch)
			for i := range inputs {
				inputs[i] = randomVector(rng, 256)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.InferBatch(inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/vec")
		})
	}
}

// BenchmarkEngineLoad tracks the write path a serving stack pays on every
// build: the reference MLP 256⁵→128→10 programmed into a fresh engine's
// crossbars (dpe.Load) plus its Von Neumann twin quantized from the same
// weights (vonneumann.NewBackend), with bytes and allocations per build
// reported. `make bench-smoke` runs it so setup regressions show without
// a full serving benchmark.
func BenchmarkEngineLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMLP("bench", []int{256, 256, 256, 256, 256, 128, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := dpe.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Load(net); err != nil {
			b.Fatal(err)
		}
		if _, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPEInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMLP("bench", []int{256, 256, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		b.Fatal(err)
	}
	in := randomVector(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Infer(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflowPipeline(b *testing.B) {
	g := dataflow.NewGraph()
	prev := dataflow.NodeID(-1)
	var first dataflow.NodeID
	for i := 0; i < 8; i++ {
		id, err := g.AddNode("n", packet.Address{Unit: uint16(i)}, dataflow.ReLU())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = id
		} else if err := g.Connect(prev, id); err != nil {
			b.Fatal(err)
		}
		prev = id
	}
	eng, err := dataflow.NewEngine(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := randomVector(rand.New(rand.NewSource(1)), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Inject(first, in); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketMarshal(b *testing.B) {
	p := &packet.Packet{
		Type:    packet.TypeData,
		Payload: randomVector(rand.New(rand.NewSource(1)), 64),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := p.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheHierarchy(b *testing.B) {
	h, err := vonneumann.NewHierarchy(vonneumann.DefaultHierarchy())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64) % (64 << 20))
	}
}

// --- helpers ---

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s-%d", prefix, v)
}

func randomMatrix(rng *rand.Rand, m, n int) [][]float64 {
	w := make([][]float64, m)
	for r := range w {
		w[r] = make([]float64, n)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// BenchmarkAssociativeSearch measures TCAM longest-prefix match and
// associative row-parallel arithmetic.
func BenchmarkAssociativeSearch(b *testing.B) {
	tc, err := NewTCAM(256, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 256; r++ {
		prefix := uint64(rng.Uint32())
		bits := 8 + rng.Intn(24)
		mask := (^uint64(0) << (32 - bits)) & 0xFFFFFFFF
		if err := tc.Store(r, prefix&mask, mask); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.LongestPrefixMatch(uint64(rng.Uint32()))
	}
}

func BenchmarkAssociativeAdd(b *testing.B) {
	ap, err := NewAssociativeProcessor(1024, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 1024; r++ {
		if err := ap.Write(r, uint64(rng.Uint32())); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.AddConstant(uint64(i))
	}
}

// BenchmarkDPEBatchPipelined reports the pipelined throughput advantage.
func BenchmarkDPEBatchPipelined(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMLP("bench", []int{128, 128, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		b.Fatal(err)
	}
	inputs := make([][]float64, 32)
	for i := range inputs {
		inputs[i] = randomVector(rng, 128)
	}
	var batchCost energy.Cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, batchCost, err = eng.InferBatch(inputs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batchCost.LatencyPS)/float64(len(inputs))/1000, "ns_sim_per_inf")
}
