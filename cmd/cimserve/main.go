// Command cimserve is the load generator for the inference serving
// pipeline (internal/serve). It stands up the paper's Section VI DPE
// behind the micro-batching frontend, drives it with a workloadgen load
// (closed-loop clients by default, open-loop arrival processes on
// request), and reports throughput and latency quantiles in `go test
// -bench` text format so the output pipes straight through cmd/benchjson
// into BENCH_serve.json:
//
//	go run ./cmd/cimserve | go run ./cmd/benchjson -out BENCH_serve.json
//
// Two serving modes are measured:
//
//   - serial: every request pays serial per-request Infer latency — the
//     pre-pipeline baseline where concurrent callers queue on one engine.
//   - batch: requests flow through the adaptive micro-batcher into
//     InferBatch, which overlaps batch items across the engine's stage
//     pipeline (simulated time) and across the worker pool (wall time).
//
// Load generation is the internal/workloadgen driver (docs/CAPACITY.md):
// -arrivals selects the arrival process — closed (the default: -clients
// workers, each issuing its next request when the previous returns),
// poisson, mmpp (bursty), diurnal, or trace (replay a recorded
// schedule from -tracefile). The open-loop processes fire requests on
// their deterministic schedule whether or not the backend keeps up —
// -rate sets the offered req/s — and the bench line gains offered_rps,
// achieved_rps, late_p50_ns/late_p99_ns (generator schedule slip), and
// peak_inflight (the queue-growth witness). -mix default draws each
// request's class (batch-1 vs batch-8 neural inference, analytics
// probes) from the seed-keyed default mix; -record writes the generated
// schedule and classes to a JSON trace replayable with -arrivals trace.
// Open-loop runs require -mode batch: the serial baseline is a
// closed-loop artifact, and an open-loop schedule against a fully
// serialized engine just measures unbounded pile-up.
//
// With -engines N (N > 1) the batch mode becomes a fleet run: N
// independent engines — each its own shadow pair, breaker, queue, and
// metrics namespace — behind the -policy request router (round-robin,
// least-loaded, weighted, wear-aware; internal/fleet, docs/CLUSTER.md).
// Requests carry their noise key (the fleet sequence number), so per-
// request outputs are bit-identical to a single-engine run under every
// policy. -reprogram in fleet mode performs *rolling* reprograms: one
// standby programs at a time, health-gated promotion, zero fleet downtime.
// The -listen endpoint exposes every engine's registry on one /metrics
// page with {engine="<id>"} labels and aggregates fleet health on
// /healthz.
//
// Each mode reports wall-clock ns/op plus custom metrics: req_per_s (wall
// throughput), sim_req_per_s (simulated throughput from the energy
// algebra's virtual clock), p50_ns/p95_ns/p99_ns (wall latency quantiles
// from the lock-free serving histogram), and pj_per_req (energy). The
// batch line adds sim_speedup and wall_speedup versus the serial baseline,
// and -reprogram > 0 exercises shadow-engine weight swaps mid-run to show
// they cost the serving path nothing.
//
// -dispatch selects the serving backend policy (internal/hybrid,
// docs/HYBRID.md): cim (default) serves every flush from the crossbar
// path, vn serves from the executing Von Neumann twin (bit-identical on
// deterministic configs), and auto routes each flush by the calibrated
// cost model, pinning keyed/noisy traffic to CIM. Non-default modes add
// dispatch_cim / dispatch_vn / dispatch_pinned_noisy to the bench line,
// and the dispatch.* counters appear on /metrics.
//
// Errors in batch mode are broken out by cause so the benchjson archive
// distinguishes capacity problems from health problems (docs/FAULTS.md):
// shed counts backpressure rejections (ErrOverloaded; closed-loop clients
// retry them, open-loop drives count them and keep the schedule), unhealthy
// counts requests refused by the tripped circuit breaker (ErrUnhealthy),
// and reprogram_failed counts weight swaps that failed after the breaker's
// retry budget. -stuck and -spares inject device faults to exercise these
// paths; at the defaults (no faults) all three stay zero.
//
// The resilience layer (docs/RESILIENCE.md) is driven by four flags:
// -deadline sets a per-request budget — requests that expire anywhere in
// the pipeline (ingress queue included) shed with the typed
// ErrDeadlineExceeded and are counted as deadline_exceeded, never
// retried. -hedge (fleet mode) re-issues requests that outlive the
// tracked p95 on a second engine — keyed noise makes the two attempts
// bit-identical, so first-response-wins is safe; hedged / hedge_won land
// on the bench line. -overload (fleet mode) enables the per-engine AIMD
// concurrency limiter and the priority brownout. -chaos <scenario>
// injects a deterministic fault plan (none, straggler, crash, overload —
// internal/chaos) into every engine; /healthz reports the active
// scenario and each engine's current concurrency limit. Note the
// micro-batcher's *flush* deadline — how long a partial batch may wait
// for company — is the separate -maxdelay flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/faultinject"
	"cimrev/internal/fleet"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloadgen"
)

// options is the validated CLI configuration.
type options struct {
	clients   int
	requests  int
	batch     int
	maxdelay  time.Duration // micro-batcher flush deadline
	deadline  time.Duration // per-request deadline (0 = none)
	queue     int
	mode      string
	layers    []int
	seed      int64
	reprogram int
	stuck     float64
	spares    int
	listen    string
	engines   int
	policy    string
	dispatch  string
	hedge     bool
	overload  bool
	chaos     string

	// Load generation (internal/workloadgen): the arrival process, its
	// offered rate, the request-class mix, and trace record/replay.
	arrivals  string
	rate      float64
	mix       string
	record    string
	tracefile string
}

// openLoop reports whether the options select an open-loop drive. The
// zero value means closed, so option structs built in code (tests,
// embedders) keep their historical behavior without naming the flag.
func (o options) openLoop() bool { return o.arrivals != "" && o.arrivals != "closed" }

// generated reports whether the arrival process is a schedule generator
// (recordable to a trace, parameterized by -rate).
func (o options) generated() bool {
	switch o.arrivals {
	case "poisson", "mmpp", "diurnal":
		return true
	}
	return false
}

// parseLayers parses a comma-separated MLP shape like "256,128,10".
func parseLayers(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("cimserve: -layers needs at least 2 comma-separated sizes, got %q", s)
	}
	sizes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("cimserve: -layers entry %d (%q) must be a positive integer", i, p)
		}
		sizes[i] = v
	}
	return sizes, nil
}

// validate fails fast on degenerate parameters, mirroring the
// serve.Config / crossbar ADCBits=0 convention.
func (o options) validate() error {
	switch {
	case o.clients < 1:
		return fmt.Errorf("cimserve: -clients must be >= 1, got %d", o.clients)
	case o.requests < 1:
		return fmt.Errorf("cimserve: -requests must be >= 1, got %d", o.requests)
	case o.batch < 1:
		return fmt.Errorf("cimserve: -batch must be >= 1, got %d", o.batch)
	case o.maxdelay <= 0:
		return fmt.Errorf("cimserve: -maxdelay must be positive, got %v", o.maxdelay)
	case o.deadline < 0:
		return fmt.Errorf("cimserve: -deadline must be >= 0 (0 disables), got %v", o.deadline)
	case o.queue < 1:
		return fmt.Errorf("cimserve: -queue must be >= 1, got %d", o.queue)
	case !o.openLoop() && o.queue < o.clients:
		return fmt.Errorf("cimserve: -queue (%d) must be >= -clients (%d): a closed loop never has more than one outstanding request per client, so a smaller queue just sheds load spuriously", o.queue, o.clients)
	case o.mode != "both" && o.mode != "serial" && o.mode != "batch":
		return fmt.Errorf("cimserve: -mode must be one of both|serial|batch, got %q", o.mode)
	case o.reprogram < 0:
		return fmt.Errorf("cimserve: -reprogram must be >= 0, got %d", o.reprogram)
	case o.stuck < 0 || o.stuck >= 1:
		return fmt.Errorf("cimserve: -stuck must be in [0, 1), got %g", o.stuck)
	case o.spares < 0:
		return fmt.Errorf("cimserve: -spares must be >= 0, got %d", o.spares)
	case o.engines < 1:
		return fmt.Errorf("cimserve: -engines must be >= 1, got %d", o.engines)
	case o.hedge && o.engines < 2:
		return fmt.Errorf("cimserve: -hedge needs a fleet to hedge across, use -engines >= 2")
	case o.overload && o.engines < 2:
		return fmt.Errorf("cimserve: -overload is a fleet-mode control, use -engines >= 2")
	}
	switch o.arrivals {
	case "", "closed", "poisson", "mmpp", "diurnal", "trace":
	default:
		return fmt.Errorf("cimserve: -arrivals must be one of closed|poisson|mmpp|diurnal|trace, got %q", o.arrivals)
	}
	switch {
	case o.generated() && o.rate <= 0:
		return fmt.Errorf("cimserve: -arrivals %s needs a positive -rate (offered req/s), got %g", o.arrivals, o.rate)
	case o.arrivals == "trace" && o.tracefile == "":
		return fmt.Errorf("cimserve: -arrivals trace needs -tracefile")
	case o.tracefile != "" && o.arrivals != "trace":
		return fmt.Errorf("cimserve: -tracefile only applies to -arrivals trace")
	case o.record != "" && !o.generated():
		return fmt.Errorf("cimserve: -record needs a schedule generator (-arrivals poisson|mmpp|diurnal), got %q", o.arrivals)
	case o.openLoop() && o.mode != "batch":
		return fmt.Errorf("cimserve: -arrivals %s is open-loop and requires -mode batch (the serial baseline is a closed-loop artifact)", o.arrivals)
	case o.mix != "" && o.mix != "none" && o.mix != "default":
		return fmt.Errorf("cimserve: -mix must be none or default, got %q", o.mix)
	}
	if _, err := fleet.ParsePolicy(o.policy); err != nil {
		return fmt.Errorf("cimserve: -policy: %w", err)
	}
	if _, err := hybrid.ParseMode(o.dispatch); err != nil {
		return fmt.Errorf("cimserve: -dispatch: %w", err)
	}
	if plan, err := chaos.ScenarioPlan(o.chaos, o.seed, 1); err != nil {
		return fmt.Errorf("cimserve: -chaos: %w", err)
	} else if plan.Enabled() && o.engines < 2 {
		return fmt.Errorf("cimserve: -chaos %s targets a fleet, use -engines >= 2", o.chaos)
	}
	return nil
}

// loadgen is the built workload: the arrival process (nil = closed loop)
// and the class picker (nil = single class).
type loadgen struct {
	arrivals workloadgen.Arrivals
	mix      workloadgen.Picker
}

// buildLoad constructs the arrival process and class picker the options
// select. Trace replays resolve their recorded class names against the
// -mix classes; with -mix none a classed trace replays its schedule only.
func buildLoad(o options) (loadgen, error) {
	var g loadgen
	if o.mix == "default" {
		g.mix = workloadgen.DefaultMix(o.seed)
	}
	var err error
	switch o.arrivals {
	case "closed":
	case "poisson":
		g.arrivals, err = workloadgen.NewPoisson(o.seed, o.rate)
	case "mmpp":
		g.arrivals, err = workloadgen.NewMMPP(workloadgen.MMPPConfig{Seed: o.seed, Rate: o.rate})
	case "diurnal":
		g.arrivals, err = workloadgen.NewDiurnal(workloadgen.DiurnalConfig{Seed: o.seed, Rate: o.rate})
	case "trace":
		f, ferr := os.Open(o.tracefile)
		if ferr != nil {
			return g, fmt.Errorf("cimserve: -tracefile: %w", ferr)
		}
		tr, terr := workloadgen.ReadTrace(f)
		f.Close()
		if terr != nil {
			return g, fmt.Errorf("cimserve: -tracefile %s: %w", o.tracefile, terr)
		}
		rep, rerr := tr.Replay()
		if rerr != nil {
			return g, rerr
		}
		g.arrivals = rep
		if rep.ClassNames() && o.mix == "default" {
			g.mix, err = rep.Picker(workloadgen.DefaultMix(o.seed))
		}
	}
	return g, err
}

// runStats is what one serving mode measured.
type runStats struct {
	requests int
	wall     time.Duration
	simPS    int64
	energyPJ float64
	lat      metrics.HistogramSnapshot
	swaps    int64
	avgBatch float64

	// Error breakdown by cause (batch mode): backpressure sheds, breaker
	// sheds, and weight swaps that exhausted the breaker's retry budget.
	shed            int64
	unhealthy       int64
	reprogramFailed int64
	retries         int64

	// Hybrid dispatch breakdown: requests routed to the crossbar, to the
	// Von Neumann twin, and pinned to the crossbar for noise reasons.
	dispCIM    int64
	dispVN     int64
	dispPinned int64

	// Resilience breakdown (docs/RESILIENCE.md): requests shed by their
	// per-request deadline, hedges issued/won, limiter refusals folded
	// into failovers, and brownout sheds of low-priority traffic.
	deadlineExceeded int64
	hedged           int64
	hedgeWon         int64
	limiterRefused   int64
	brownoutShed     int64

	// Open-loop drive measurements (zero in closed-loop runs): the
	// schedule's nominal rate, served throughput, generator schedule
	// slip, and the in-flight high-water mark.
	offeredRPS   float64
	achievedRPS  float64
	lateP50NS    float64
	lateP99NS    float64
	peakInFlight int64
}

func (s runStats) wallReqPerSec() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.requests) / s.wall.Seconds()
}

func (s runStats) simReqPerSec() float64 {
	if s.simPS <= 0 {
		return 0
	}
	return float64(s.requests) / (float64(s.simPS) * 1e-12)
}

// fromReport folds the drive's report into the stats.
func (s *runStats) fromReport(rep workloadgen.Report) {
	s.requests = rep.Requests
	s.wall = rep.Wall
	s.shed = rep.Sheds
	s.offeredRPS = rep.OfferedRPS
	s.achievedRPS = rep.AchievedRPS
	s.lateP50NS = rep.Lateness.Quantile(0.5)
	s.lateP99NS = rep.Lateness.Quantile(0.99)
	s.peakInFlight = rep.PeakInFlight
}

func main() {
	var o options
	var layersFlag string
	flag.IntVar(&o.clients, "clients", 64, "concurrent closed-loop clients (ignored by open-loop -arrivals)")
	flag.IntVar(&o.requests, "requests", 2048, "total requests per mode")
	flag.IntVar(&o.batch, "batch", 64, "micro-batcher max batch size")
	flag.DurationVar(&o.maxdelay, "maxdelay", 2*time.Millisecond, "micro-batcher flush deadline: max delay a partial batch waits for company")
	flag.DurationVar(&o.deadline, "deadline", 0, "per-request deadline; expired requests shed with ErrDeadlineExceeded (0 disables)")
	flag.IntVar(&o.queue, "queue", 4096, "ingress queue bound (backpressure high-water mark)")
	flag.StringVar(&o.mode, "mode", "both", "serving modes to run: both|serial|batch")
	flag.StringVar(&layersFlag, "layers", "256,256,256,256,256,128,10", "8-bit MLP layer sizes")
	flag.Int64Var(&o.seed, "seed", 1, "workload and engine seed")
	flag.IntVar(&o.reprogram, "reprogram", 0, "shadow-engine weight swaps to perform mid-run (batch mode)")
	flag.Float64Var(&o.stuck, "stuck", 0, "stuck-cell rate injected into every crossbar (split evenly GMin/GMax)")
	flag.IntVar(&o.spares, "spares", 0, "spare columns per crossbar for fault remapping")
	flag.StringVar(&o.listen, "listen", "", "address for the live telemetry endpoint (/metrics, /healthz, /debug/pprof); empty disables")
	flag.IntVar(&o.engines, "engines", 1, "fleet size: engines behind the request router (1 = single-engine batch mode)")
	flag.StringVar(&o.policy, "policy", "round-robin", "fleet routing policy: round-robin, least-loaded, weighted, wear-aware")
	flag.StringVar(&o.dispatch, "dispatch", "cim", "backend dispatch policy: cim (crossbar only), vn (Von Neumann twin only), auto (cost-model routing)")
	flag.BoolVar(&o.hedge, "hedge", false, "fleet mode: hedge requests that outlive the tracked p95 onto a second engine (first response wins, bit-identical)")
	flag.BoolVar(&o.overload, "overload", false, "fleet mode: enable the per-engine AIMD concurrency limiter and priority brownout")
	flag.StringVar(&o.chaos, "chaos", "none", "fleet mode: deterministic chaos scenario to inject: none, straggler, crash, overload")
	flag.StringVar(&o.arrivals, "arrivals", "closed", "arrival process: closed (clients loop), poisson, mmpp, diurnal, trace (open-loop, -mode batch)")
	flag.Float64Var(&o.rate, "rate", 0, "offered req/s for -arrivals poisson|mmpp|diurnal")
	flag.StringVar(&o.mix, "mix", "none", "request-class mix: none (single class) or default (seed-keyed batch-1/batch-8/analytics)")
	flag.StringVar(&o.record, "record", "", "write the generated arrival schedule and classes to this JSON trace file")
	flag.StringVar(&o.tracefile, "tracefile", "", "trace file to replay with -arrivals trace")
	flag.Parse()

	layers, err := parseLayers(layersFlag)
	if err != nil {
		fatal(err)
	}
	o.layers = layers
	if err := o.validate(); err != nil {
		fatal(err)
	}
	if err := run(os.Stdout, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cimserve:", err)
	os.Exit(1)
}

// run executes the selected modes and writes bench-format lines to w.
func run(w io.Writer, o options) error {
	gen, err := buildLoad(o)
	if err != nil {
		return err
	}
	if o.record != "" {
		tr, err := workloadgen.Record(gen.arrivals, gen.mix, o.requests)
		if err != nil {
			return err
		}
		f, err := os.Create(o.record)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cimserve: recorded %d arrivals (%s, %.0f req/s) to %s\n",
			o.requests, o.arrivals, o.rate, o.record)
	}

	// The 8-bit MLP workload: default crossbar config is 8-bit weights,
	// 8-bit inputs, 8-bit ADCs; functional mode keeps the cost model
	// intact while skipping per-cycle ADC emulation.
	cfg := dpe.DefaultConfig()
	cfg.Seed = o.seed
	if o.stuck > 0 {
		cfg.Faults = faultinject.Model{
			StuckLowRate:  o.stuck / 2,
			StuckHighRate: o.stuck / 2,
			Seed:          o.seed,
		}
		cfg.Crossbar.SpareCols = o.spares
	}

	rng := rand.New(rand.NewSource(o.seed))
	net, err := nn.NewMLP("serve-mlp8", o.layers, rng)
	if err != nil {
		return err
	}
	netB, err := nn.NewMLP("serve-mlp8-v2", o.layers, rng)
	if err != nil {
		return err
	}
	inputs := make([][]float64, 256)
	for i := range inputs {
		in := make([]float64, o.layers[0])
		for j := range in {
			in[j] = rng.Float64()*2 - 1
		}
		inputs[i] = in
	}

	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintf(w, "pkg: cimrev/cmd/cimserve\n")

	// The telemetry endpoint (when -listen is set) outlives both modes;
	// runBatch installs the live registry/pair/breaker into it.
	tel := &telemetry{}
	if o.listen != "" {
		addr, stop, err := startTelemetry(o.listen, tel)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "cimserve: telemetry on http://%s (/metrics /healthz /debug/pprof)\n", addr)
	}

	var serial, batch runStats
	if o.mode == "both" || o.mode == "serial" {
		serial, err = runSerial(cfg, net, inputs, o)
		if err != nil {
			return err
		}
		emit(w, fmt.Sprintf("BenchmarkServe/serial_c%d", o.clients), serial, nil, nil)
	}
	if o.mode == "both" || o.mode == "batch" {
		if o.engines > 1 {
			batch, err = runFleet(cfg, net, netB, inputs, o, gen, tel)
		} else {
			batch, err = runBatch(cfg, net, netB, inputs, o, gen, tel)
		}
		if err != nil {
			return err
		}
		extra := map[string]float64{
			"avg_batch":         batch.avgBatch,
			"swaps":             float64(batch.swaps),
			"shed":              float64(batch.shed),
			"unhealthy":         float64(batch.unhealthy),
			"reprogram_failed":  float64(batch.reprogramFailed),
			"reprogram_retries": float64(batch.retries),
		}
		order := []string{"avg_batch", "swaps", "shed", "unhealthy", "reprogram_failed", "reprogram_retries"}
		if o.openLoop() {
			extra["offered_rps"] = batch.offeredRPS
			extra["achieved_rps"] = batch.achievedRPS
			extra["late_p50_ns"] = batch.lateP50NS
			extra["late_p99_ns"] = batch.lateP99NS
			extra["peak_inflight"] = float64(batch.peakInFlight)
			order = append(order, "offered_rps", "achieved_rps", "late_p50_ns", "late_p99_ns", "peak_inflight")
		}
		if o.deadline > 0 {
			extra["deadline_exceeded"] = float64(batch.deadlineExceeded)
			order = append(order, "deadline_exceeded")
		}
		if o.hedge {
			extra["hedged"] = float64(batch.hedged)
			extra["hedge_won"] = float64(batch.hedgeWon)
			order = append(order, "hedged", "hedge_won")
		}
		if o.overload {
			extra["limiter_refused"] = float64(batch.limiterRefused)
			extra["brownout_shed"] = float64(batch.brownoutShed)
			order = append(order, "limiter_refused", "brownout_shed")
		}
		if o.dispatch != "cim" {
			extra["dispatch_cim"] = float64(batch.dispCIM)
			extra["dispatch_vn"] = float64(batch.dispVN)
			extra["dispatch_pinned_noisy"] = float64(batch.dispPinned)
			order = append(order, "dispatch_cim", "dispatch_vn", "dispatch_pinned_noisy")
		}
		if o.mode == "both" {
			if batch.simPS > 0 {
				extra["sim_speedup"] = float64(serial.simPS) / float64(batch.simPS)
				order = append(order, "sim_speedup")
			}
			if batch.wall > 0 {
				extra["wall_speedup"] = serial.wall.Seconds() / batch.wall.Seconds()
				order = append(order, "wall_speedup")
			}
		}
		// Closed-loop names keep their historical shape; open-loop names
		// carry the arrival process instead of the (ignored) client count.
		name := fmt.Sprintf("BenchmarkServe/batch_c%d_b%d", o.clients, o.batch)
		if o.openLoop() {
			name = fmt.Sprintf("BenchmarkServe/batch_%s_b%d", o.arrivals, o.batch)
		}
		if o.engines > 1 {
			extra["engines"] = float64(o.engines)
			order = append(order, "engines")
			policy := strings.ReplaceAll(o.policy, "-", "_")
			if o.openLoop() {
				name = fmt.Sprintf("BenchmarkServe/fleet_%s_b%d_e%d_%s", o.arrivals, o.batch, o.engines, policy)
			} else {
				name = fmt.Sprintf("BenchmarkServe/fleet_c%d_b%d_e%d_%s", o.clients, o.batch, o.engines, policy)
			}
		}
		emit(w, name, batch, extra, order)
	}
	summary(os.Stderr, o, serial, batch)
	return nil
}

// driveConfig is the workloadgen configuration the options select.
func driveConfig(o options, gen loadgen) workloadgen.DriveConfig {
	return workloadgen.DriveConfig{
		Arrivals: gen.arrivals,
		Mix:      gen.mix,
		Requests: o.requests,
		Clients:  o.clients,
	}
}

// serveMaxBatch bounds Class.Batch so fleet batch elements get distinct
// noise keys (seq*serveMaxBatch + element).
const serveMaxBatch = 8

// runSerial measures the baseline: o.clients closed-loop clients contend
// for one engine whose Infer calls are fully serialized — every request
// pays serial per-request latency, in wall-clock and in simulated time.
func runSerial(cfg dpe.Config, net *nn.Network, inputs [][]float64, o options) (runStats, error) {
	eng, err := dpe.New(cfg)
	if err != nil {
		return runStats{}, err
	}
	if _, err := eng.Load(net); err != nil {
		return runStats{}, err
	}

	var mu sync.Mutex // serializes Infer: the no-pipeline baseline
	var simPS atomic.Int64
	var energyBits atomic.Uint64
	rep, err := workloadgen.Drive(driveConfig(o, loadgen{}), func(req workloadgen.Request) (workloadgen.Outcome, error) {
		mu.Lock()
		_, cost, err := eng.Infer(inputs[req.Seq%uint64(len(inputs))])
		mu.Unlock()
		if err != nil {
			return workloadgen.Fatal, err
		}
		simPS.Add(cost.LatencyPS)
		addEnergy(&energyBits, cost.EnergyPJ)
		return workloadgen.OK, nil
	})
	if err != nil {
		return runStats{}, err
	}
	st := runStats{
		simPS:    simPS.Load(),
		energyPJ: loadEnergy(&energyBits),
		lat:      rep.Latency,
	}
	st.fromReport(rep)
	return st, nil
}

// requestCtx is one request attempt's context: bounded by d when d > 0
// (the -deadline budget), plain background otherwise.
func requestCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// classify maps a serving error onto a drive outcome, folding the
// cause-specific counters as it goes. Backpressure is Shed (closed-loop
// drives retry it, open-loop drives count it and keep the schedule);
// deadline and breaker refusals are Drops (never retried); anything else
// is fatal.
func classify(err error, deadlined, unhealthy *atomic.Int64) (workloadgen.Outcome, error) {
	switch {
	case err == nil:
		return workloadgen.OK, nil
	case errors.Is(err, serve.ErrDeadlineExceeded):
		deadlined.Add(1)
		return workloadgen.Drop, nil
	case errors.Is(err, serve.ErrOverloaded):
		return workloadgen.Shed, nil
	case errors.Is(err, serve.ErrUnhealthy):
		unhealthy.Add(1)
		return workloadgen.Drop, nil
	default:
		return workloadgen.Fatal, err
	}
}

// fanout submits a request's class batch through one: a Class.Batch of k
// issues k concurrent submissions and the worst element outcome wins
// (Fatal > Drop > Shed > OK).
func fanout(req workloadgen.Request, one func(element int) (workloadgen.Outcome, error)) (workloadgen.Outcome, error) {
	batch := req.Class.Batch
	if batch <= 1 {
		return one(0)
	}
	outcomes := make([]workloadgen.Outcome, batch)
	errs := make([]error, batch)
	var wg sync.WaitGroup
	for j := 0; j < batch; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			outcomes[j], errs[j] = one(j)
		}(j)
	}
	wg.Wait()
	worst, werr := workloadgen.OK, error(nil)
	for j, out := range outcomes {
		if out > worst {
			worst, werr = out, errs[j]
		}
	}
	return worst, werr
}

// runBatch measures the pipeline: the workloadgen drive submits to the
// micro-batching server over a health-gated shadow pair, with optional
// mid-run weight swaps. Request failures are classified by cause rather
// than collapsed into one count: backpressure (ErrOverloaded) retries in
// closed-loop mode, breaker sheds (ErrUnhealthy) abandon the request,
// anything else aborts the run.
func runBatch(cfg dpe.Config, net, netB *nn.Network, inputs [][]float64, o options, gen loadgen, tel *telemetry) (runStats, error) {
	pair, _, err := serve.NewShadowPair(cfg, net)
	if err != nil {
		return runStats{}, err
	}
	// One registry spans the whole pipeline — the redesigned serve.Config
	// threads it into both the breaker and the micro-batcher, so the
	// telemetry endpoint scrapes a single coherent namespace.
	reg := metrics.NewRegistry()
	// The breaker sits between the micro-batcher and the shadow pair. With
	// no faults injected it is transparent; with -stuck past the spare
	// budget, failed swaps trip it and subsequent requests shed with
	// ErrUnhealthy instead of silently serving degraded weights.
	brk, err := serve.NewBreaker(pair,
		serve.WithRetry(3, time.Millisecond, 50*time.Millisecond),
		serve.WithSeed(o.seed),
		serve.WithRegistry(reg),
	)
	if err != nil {
		return runStats{}, err
	}
	// The hybrid dispatcher sits between the micro-batcher and the breaker:
	// it routes each flush to the crossbar path or to the executing Von
	// Neumann twin (bit-identical on deterministic configs) per -dispatch.
	// Faulty deployments have no twin; auto mode then pins everything to
	// CIM, and vn mode is rejected by hybrid.New.
	dmode, err := hybrid.ParseMode(o.dispatch)
	if err != nil {
		return runStats{}, err
	}
	var twin *vonneumann.Backend
	if !cfg.Faults.Enabled() && cfg.Crossbar.ReadNoise == 0 {
		twin, err = vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
		if err != nil {
			return runStats{}, err
		}
	}
	disp, err := hybrid.New(brk, twin, hybrid.WithMode(dmode), hybrid.WithRegistry(reg))
	if err != nil {
		return runStats{}, err
	}
	srv, err := serve.New(disp,
		serve.WithBatch(o.batch, o.maxdelay),
		serve.WithQueueBound(o.queue),
		serve.WithRegistry(reg),
	)
	if err != nil {
		return runStats{}, err
	}
	if tel != nil {
		tel.set(reg, pair, brk)
	}

	var deadlined, unhealthy, reprogramFailed atomic.Int64
	var energyBits atomic.Uint64

	// Shadow swaps spread across the run: reprogramming must cost the
	// serving path nothing but the buffer swap. A swap that fails after the
	// breaker's retry budget is counted, not fatal — the breakdown in the
	// bench output is the measurement.
	var swapsDone sync.WaitGroup
	if o.reprogram > 0 {
		swapsDone.Add(1)
		go func() {
			defer swapsDone.Done()
			interval := time.Duration(int64(o.requests)) * time.Microsecond / time.Duration(o.reprogram+1)
			if interval < 2*time.Millisecond {
				interval = 2 * time.Millisecond
			}
			for k := 0; k < o.reprogram; k++ {
				time.Sleep(interval)
				target := netB
				if k%2 == 1 {
					target = net
				}
				// Reprogram through the dispatcher so the twin requantizes in
				// the same swap and never serves stale weights.
				if _, _, err := disp.Reprogram(target); err != nil {
					reprogramFailed.Add(1)
				}
			}
		}()
	}

	rep, derr := workloadgen.Drive(driveConfig(o, gen), func(req workloadgen.Request) (workloadgen.Outcome, error) {
		return fanout(req, func(int) (workloadgen.Outcome, error) {
			ctx, cancel := requestCtx(o.deadline)
			_, cost, err := srv.Submit(ctx, inputs[req.Seq%uint64(len(inputs))])
			cancel()
			out, ferr := classify(err, &deadlined, &unhealthy)
			if out == workloadgen.OK {
				addEnergy(&energyBits, cost.EnergyPJ)
			}
			return out, ferr
		})
	})
	swapsDone.Wait()
	srv.Close()
	if derr != nil {
		return runStats{}, derr
	}

	snap := srv.Registry().Snapshot()
	st := runStats{
		simPS:            srv.SimTimePS(),
		energyPJ:         loadEnergy(&energyBits),
		lat:              snap.Histograms["serve.latency_ns"],
		swaps:            pair.Swaps(),
		unhealthy:        unhealthy.Load(),
		reprogramFailed:  reprogramFailed.Load(),
		deadlineExceeded: deadlined.Load(),
		retries:          snap.Counters["serve.reprogram_retries"],
		dispCIM:          snap.Counters["dispatch.cim"],
		dispVN:           snap.Counters["dispatch.vn"],
		dispPinned:       snap.Counters["dispatch.pinned_noisy"],
	}
	st.fromReport(rep)
	st.avgBatch = snap.Histograms["serve.batch_size"].Mean()
	return st, nil
}

// runFleet measures cluster-scale serving: the workloadgen drive feeds
// o.engines independent serving pipelines behind the o.policy router.
// Every request is stamped with its fleet sequence number as its noise
// key, so outputs are bit-identical to a 1-engine run regardless of
// placement. -reprogram fires rolling reprograms — each one updates every
// engine, one standby at a time, with the fleet serving throughout.
func runFleet(cfg dpe.Config, net, netB *nn.Network, inputs [][]float64, o options, gen loadgen, tel *telemetry) (runStats, error) {
	policy, err := fleet.ParsePolicy(o.policy)
	if err != nil {
		return runStats{}, err
	}
	dmode, err := hybrid.ParseMode(o.dispatch)
	if err != nil {
		return runStats{}, err
	}
	fopts := []fleet.Option{
		fleet.WithEngines(o.engines),
		fleet.WithPolicy(policy),
		fleet.WithServeOptions(
			serve.WithBatch(o.batch, o.maxdelay),
			serve.WithQueueBound(o.queue),
			serve.WithRetry(3, time.Millisecond, 50*time.Millisecond),
		),
	}
	// Resilience controls (docs/RESILIENCE.md), all defaulted: hedging at
	// the tracked p95 with the 5% budget, AIMD + brownout at the documented
	// limits, and the named deterministic chaos plan at scale 1.
	if o.hedge {
		fopts = append(fopts, fleet.WithHedge(fleet.HedgeConfig{}))
	}
	if o.overload {
		fopts = append(fopts, fleet.WithOverloadControl(fleet.OverloadConfig{}))
	}
	plan, err := chaos.ScenarioPlan(o.chaos, o.seed, 1)
	if err != nil {
		return runStats{}, err
	}
	if plan.Enabled() {
		fopts = append(fopts, fleet.WithChaos(chaos.New(plan)))
	}
	// Non-default dispatch wraps every engine's breaker in its own hybrid
	// dispatcher with a per-engine twin, so the dispatch.* counters land in
	// each engine's registry. Fleet traffic is all keyed, which auto mode
	// pins to CIM — the counters make that observable per engine.
	var wrapErr error
	if dmode != hybrid.ModeCIM {
		fopts = append(fopts, fleet.WithWrapBackend(func(id int, b serve.Backend, reg *metrics.Registry) serve.Backend {
			cb, ok := b.(hybrid.CIMBackend)
			if !ok {
				return b
			}
			var twin *vonneumann.Backend
			if !cfg.Faults.Enabled() && cfg.Crossbar.ReadNoise == 0 {
				tw, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
				if err != nil {
					wrapErr = fmt.Errorf("engine %d twin: %w", id, err)
					return b
				}
				twin = tw
			}
			d, err := hybrid.New(cb, twin, hybrid.WithMode(dmode), hybrid.WithRegistry(reg))
			if err != nil {
				wrapErr = fmt.Errorf("engine %d dispatcher: %w", id, err)
				return b
			}
			return d
		}))
	}
	f, _, err := fleet.New(cfg, net, fopts...)
	if err != nil {
		return runStats{}, err
	}
	if wrapErr != nil {
		f.Close()
		return runStats{}, wrapErr
	}
	defer f.Close()
	if tel != nil {
		tel.setFleet(f)
	}

	var deadlined, unhealthy, reprogramFailed atomic.Int64
	var energyBits atomic.Uint64

	// Rolling reprograms spread across the run: every engine swaps, one
	// standby at a time, and no request ever fails for it.
	var swapsDone sync.WaitGroup
	if o.reprogram > 0 {
		swapsDone.Add(1)
		go func() {
			defer swapsDone.Done()
			interval := time.Duration(int64(o.requests)) * time.Microsecond / time.Duration(o.reprogram+1)
			if interval < 2*time.Millisecond {
				interval = 2 * time.Millisecond
			}
			for k := 0; k < o.reprogram; k++ {
				time.Sleep(interval)
				target := netB
				if k%2 == 1 {
					target = net
				}
				rep := f.RollingReprogram(target)
				reprogramFailed.Add(int64(rep.Failed))
			}
		}()
	}

	rep, derr := workloadgen.Drive(driveConfig(o, gen), func(req workloadgen.Request) (workloadgen.Outcome, error) {
		return fanout(req, func(element int) (workloadgen.Outcome, error) {
			// Each attempt gets its own deadline: the budget covers one
			// trip through the router + engine, not the drive's retry loop.
			ctx, cancel := requestCtx(o.deadline)
			// Batch-1 requests keep the drive sequence as their noise key —
			// bit-identical to the historical closed loop; batch-k elements
			// derive distinct keys under the same request.
			seq := req.Seq
			if req.Class.Batch > 1 {
				seq = req.Seq*serveMaxBatch + uint64(element)
			}
			_, cost, err := f.SubmitSeq(ctx, seq, inputs[seq%uint64(len(inputs))])
			cancel()
			out, ferr := classify(err, &deadlined, &unhealthy)
			if out == workloadgen.OK {
				addEnergy(&energyBits, cost.EnergyPJ)
			}
			return out, ferr
		})
	})
	swapsDone.Wait()
	if derr != nil {
		return runStats{}, derr
	}

	fsnap := f.Registry().Snapshot()
	st := runStats{
		simPS:            f.SimTimePS(),
		energyPJ:         loadEnergy(&energyBits),
		lat:              fsnap.Histograms["fleet.latency_ns"],
		unhealthy:        unhealthy.Load(),
		reprogramFailed:  reprogramFailed.Load(),
		deadlineExceeded: deadlined.Load(),
		hedged:           fsnap.Counters["fleet.hedged"],
		hedgeWon:         fsnap.Counters["fleet.hedge_won"],
		limiterRefused:   fsnap.Counters["fleet.limiter_refused"],
		brownoutShed:     fsnap.Counters["fleet.brownout_shed"],
	}
	st.fromReport(rep)
	var batchCount, batchSum float64
	for _, e := range f.Engines() {
		st.swaps += e.Pair().Swaps()
		snap := e.Registry().Snapshot()
		st.retries += snap.Counters["serve.reprogram_retries"]
		st.dispCIM += snap.Counters["dispatch.cim"]
		st.dispVN += snap.Counters["dispatch.vn"]
		st.dispPinned += snap.Counters["dispatch.pinned_noisy"]
		if h, ok := snap.Histograms["serve.batch_size"]; ok {
			batchCount += float64(h.Count)
			batchSum += h.Sum
		}
	}
	if batchCount > 0 {
		st.avgBatch = batchSum / batchCount
	}
	return st, nil
}

// emit writes one `go test -bench`-style result line: name, iterations,
// ns/op, then custom (value, unit) pairs that cmd/benchjson collects into
// its Extra map. The -1 suffix mirrors go test's GOMAXPROCS suffix.
func emit(w io.Writer, name string, s runStats, extra map[string]float64, order []string) {
	nsPerOp := float64(s.wall.Nanoseconds()) / float64(s.requests)
	fmt.Fprintf(w, "%s-%d %d %.0f ns/op", name, runtime.GOMAXPROCS(0), s.requests, nsPerOp)
	fmt.Fprintf(w, " %.1f req_per_s", s.wallReqPerSec())
	fmt.Fprintf(w, " %.4g sim_req_per_s", s.simReqPerSec())
	fmt.Fprintf(w, " %.0f p50_ns %.0f p95_ns %.0f p99_ns",
		s.lat.Quantile(0.50), s.lat.Quantile(0.95), s.lat.Quantile(0.99))
	fmt.Fprintf(w, " %.4g pj_per_req", s.energyPJ/float64(s.requests))
	for _, k := range order {
		fmt.Fprintf(w, " %.4g %s", extra[k], k)
	}
	fmt.Fprintln(w)
}

// summary prints the human-readable comparison to stderr so stdout stays
// machine-clean for the benchjson pipe.
func summary(w io.Writer, o options, serial, batch runStats) {
	fmt.Fprintf(w, "cimserve: %d requests, %s, MLP %v (8-bit)\n", o.requests, loadDesc(o), o.layers)
	if serial.requests > 0 {
		fmt.Fprintf(w, "  serial: %8.1f req/s wall   %10.4g req/s simulated   p99 %s\n",
			serial.wallReqPerSec(), serial.simReqPerSec(), time.Duration(serial.lat.Quantile(0.99)))
	}
	if batch.requests > 0 {
		fmt.Fprintf(w, "  batch:  %8.1f req/s wall   %10.4g req/s simulated   p99 %s   avg batch %.1f   swaps %d\n",
			batch.wallReqPerSec(), batch.simReqPerSec(), time.Duration(batch.lat.Quantile(0.99)),
			batch.avgBatch, batch.swaps)
		fmt.Fprintf(w, "  errors: shed %d   unhealthy %d   reprogram failed %d (retries %d)\n",
			batch.shed, batch.unhealthy, batch.reprogramFailed, batch.retries)
		if o.openLoop() {
			fmt.Fprintf(w, "  open loop: offered %.0f req/s   achieved %.0f req/s   late p99 %s   peak in-flight %d\n",
				batch.offeredRPS, batch.achievedRPS, time.Duration(batch.lateP99NS), batch.peakInFlight)
		}
		if o.deadline > 0 || o.hedge || o.overload || (o.chaos != "" && o.chaos != "none") {
			fmt.Fprintf(w, "  resilience: chaos %q   deadline exceeded %d   hedged %d (won %d)   limiter refused %d   brownout shed %d\n",
				o.chaos, batch.deadlineExceeded, batch.hedged, batch.hedgeWon,
				batch.limiterRefused, batch.brownoutShed)
		}
		if o.dispatch != "cim" {
			fmt.Fprintf(w, "  dispatch (%s): cim %d   vn %d   pinned %d\n",
				o.dispatch, batch.dispCIM, batch.dispVN, batch.dispPinned)
		}
	}
	if serial.requests > 0 && batch.simPS > 0 {
		fmt.Fprintf(w, "  simulated speedup: %.2fx   wall speedup: %.2fx\n",
			float64(serial.simPS)/float64(batch.simPS),
			serial.wall.Seconds()/batch.wall.Seconds())
	}
}

// loadDesc names the drive for the summary header.
func loadDesc(o options) string {
	if o.openLoop() {
		if o.generated() {
			return fmt.Sprintf("open loop (%s, %.0f req/s)", o.arrivals, o.rate)
		}
		return fmt.Sprintf("open loop (trace %s)", o.tracefile)
	}
	return fmt.Sprintf("%d clients", o.clients)
}

// addEnergy CAS-adds pJ into a float64-bits cell.
func addEnergy(cell *atomic.Uint64, pj float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + pj)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

func loadEnergy(cell *atomic.Uint64) float64 { return math.Float64frombits(cell.Load()) }
