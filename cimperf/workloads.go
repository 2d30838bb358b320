package main

// The three workloads. Each builds a serving stack through the public API
// of serve, fleet, hybrid, dpe and vonneumann, computes an oracle with a
// standalone single engine, and drives the stack with its own load.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	new  func(seed int64) (instance, error)
}

var workloads = []workload{
	{"dense-closed", "64 closed-loop clients on one engine with its hybrid twin at batch 64: crossbar, dpe and twin time dominates", newDenseClosed},
	{"mix-open", "seeded open-loop Poisson class mix on a small MLP over a 2-engine fleet: routing, queueing and batching dominate", newMixOpen},
	{"noisy-rolling", "bit-serial noisy kernel on a 2-engine fleet with rolling reprograms: crossbar writes beside noisy reads", newNoisyRolling},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("cimperf: unknown workload %q", name)
}

// instance is a workload with its seeded inputs generated.
type instance interface {
	// setup builds the serving stack; tr is nil on untraced runs.
	setup(tr *tracer) (*stack, setupTimes, error)
	// oracle computes the expected outputs, before any timed window.
	oracle() error
	// drive runs the load against st for the warm-up and the window.
	drive(st *stack, clk clock, win window, traced bool) *runLog
	// flushIDs names the requests a flush carries, for the traced run.
	flushIDs(inputs [][]float64, seqs []uint64) []uint64
}

// setupTimes splits one stack build.
type setupTimes struct {
	total, dpe, vn time.Duration
}

// stack is a built serving stack, whichever its shape.
type stack struct {
	srv   *serve.Server // single-engine stacks
	fl    *fleet.Fleet  // fleet stacks
	engs  []*fleet.Engine
	disps []*hybrid.Dispatcher
	pairs []*serve.ShadowPair
	regs  []*metrics.Registry // one per engine, holding its serve.* counters
}

func (s *stack) engines() int { return len(s.regs) }

func (s *stack) simPS() int64 {
	if s.fl != nil {
		return s.fl.SimTimePS()
	}
	return s.srv.SimTimePS()
}

func (s *stack) close() {
	if s.fl != nil {
		s.fl.Close()
		return
	}
	s.srv.Close()
}

// counter sums a serve-layer counter over the engines' registries.
func (s *stack) counter(name string) int64 {
	var n int64
	for _, r := range s.regs {
		n += r.Snapshot().Counters[name]
	}
	return n
}

// fleetStack collects what the benchmark reads from a built fleet.
func fleetStack(fl *fleet.Fleet, disps []*hybrid.Dispatcher) *stack {
	st := &stack{fl: fl, engs: fl.Engines(), disps: disps}
	for _, e := range st.engs {
		st.regs = append(st.regs, e.Registry())
		st.pairs = append(st.pairs, e.Pair())
	}
	return st
}

// keyedIDs identifies the requests of a keyed flush by their noise keys.
type keyedIDs struct{}

func (keyedIDs) flushIDs(_ [][]float64, seqs []uint64) []uint64 {
	return append([]uint64(nil), seqs...)
}

// refMLP is the reference network: the cimserve MLP 256⁵→128→10.
var refMLP = []int{256, 256, 256, 256, 256, 128, 10}

// randomInputs returns n seeded inputs of width dim in [-1, 1).
func randomInputs(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = rng.Float64()*2 - 1
		}
	}
	return out
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classify maps a submit error to an outcome.
func classify(err error) outcome {
	switch {
	case err == nil:
		return okReply
	case errors.Is(err, serve.ErrOverloaded):
		return shed
	default:
		return failed
	}
}

// severity orders outcomes for a fan-out request, which ends as its
// worst element: a failure beats a shed, which beats a wrong reply, which
// beats a good one.
var severity = [...]int{okReply: 0, wrongReply: 1, shed: 2, dropped: 3, failed: 4, pending: 5}

func worse(a, b outcome) outcome {
	if severity[b] > severity[a] {
		return b
	}
	return a
}

// oracleOutputs runs inputs through a freshly programmed standalone
// engine, in batches of 64, keyed when keys is non-nil.
func oracleOutputs(cfg dpe.Config, net *nn.Network, inputs [][]float64, keys []uint64) ([][]float64, error) {
	eng, err := dpe.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Load(net); err != nil {
		return nil, err
	}
	out := make([][]float64, 0, len(inputs))
	for i := 0; i < len(inputs); i += 64 {
		j := min(i+64, len(inputs))
		var outs [][]float64
		if keys != nil {
			outs, _, err = eng.InferBatchKeyed(keys[i:j], inputs[i:j])
		} else {
			outs, _, err = eng.InferBatch(inputs[i:j])
		}
		if err != nil {
			return nil, fmt.Errorf("cimperf: oracle: %w", err)
		}
		out = append(out, outs...)
	}
	return out, nil
}

// ---- dense-closed -------------------------------------------------------

const (
	denseClients = 64
	densePool    = 256
)

type denseClosed struct {
	seed  int64
	cfg   dpe.Config
	net   *nn.Network
	pool  [][]float64
	want  [][]float64
	bufs  [][]float64 // one input buffer per client
	owner map[*float64]uint64
}

func newDenseClosed(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewMLP("dense-closed", refMLP, rng)
	if err != nil {
		return nil, err
	}
	cfg := dpe.DefaultConfig()
	cfg.Seed = seed
	w := &denseClosed{seed: seed, cfg: cfg, net: net, pool: randomInputs(rng, densePool, refMLP[0])}
	w.owner = make(map[*float64]uint64, denseClients)
	for c := 0; c < denseClients; c++ {
		buf := make([]float64, refMLP[0])
		w.bufs = append(w.bufs, buf)
		w.owner[&buf[0]] = uint64(c)
	}
	return w, nil
}

// flushIDs identifies the requests of an unkeyed dense-closed flush by
// the client whose input buffer each one is.
func (w *denseClosed) flushIDs(inputs [][]float64, _ []uint64) []uint64 {
	ids := make([]uint64, len(inputs))
	for i, in := range inputs {
		ids[i] = w.owner[&in[0]]
	}
	return ids
}

func (w *denseClosed) setup(tr *tracer) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	pair, _, err := serve.NewShadowPair(w.cfg, w.net)
	if err != nil {
		return nil, t, err
	}
	t.dpe = time.Since(start)
	reg := metrics.NewRegistry()
	brk, err := serve.NewBreaker(pair, serve.WithRegistry(reg))
	if err != nil {
		return nil, t, err
	}
	vnStart := time.Now()
	twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), w.cfg.Crossbar, w.net)
	if err != nil {
		return nil, t, err
	}
	t.vn = time.Since(vnStart)
	var cim hybrid.CIMBackend = brk
	var et *engineTrace
	if tr != nil {
		et = tr.engine()
		if cim, err = et.wrap(brk, true); err != nil {
			return nil, t, err
		}
	}
	disp, err := hybrid.New(cim, twin, hybrid.WithMode(hybrid.ModeAuto), hybrid.WithRegistry(reg))
	if err != nil {
		return nil, t, err
	}
	var be serve.Backend = disp
	if et != nil {
		if be, err = et.wrap(disp, false); err != nil {
			return nil, t, err
		}
	}
	srv, err := serve.New(be, serve.WithBatch(64, 2*time.Millisecond), serve.WithRegistry(reg))
	if err != nil {
		return nil, t, err
	}
	t.total = time.Since(start)
	return &stack{srv: srv, disps: []*hybrid.Dispatcher{disp}, pairs: []*serve.ShadowPair{pair}, regs: []*metrics.Registry{reg}}, t, nil
}

func (w *denseClosed) oracle() (err error) {
	w.want, err = oracleOutputs(w.cfg, w.net, w.pool, nil)
	return err
}

func (w *denseClosed) drive(st *stack, clk clock, win window, traced bool) *runLog {
	log := closedLoop(clk, denseClients, win, st.simPS, func(c int, k uint64, r *reqRec) {
		idx := draw(w.seed, streamInput, uint64(c)<<32|k) % densePool
		buf := w.bufs[c]
		copy(buf, w.pool[idx])
		out, cost, err := st.srv.Submit(context.Background(), buf)
		r.outcome = classify(err)
		if err == nil {
			r.pj = cost.EnergyPJ
			if !equal(out, w.want[idx]) {
				r.outcome = wrongReply
			}
		}
		if traced {
			r.calls = []call{{id: uint64(c), submit: r.start, ret: clk.now(), replied: err == nil}}
		}
	})
	log.checked = -1
	log.fullFlush = denseClients
	return log
}

// ---- mix-open -----------------------------------------------------------

const (
	// mixRate is the offered load in requests per second, about 9,600
	// submit calls per second with the fan-out. On a 2-core Xeon @ 2.1GHz
	// it ran 20 runs of 30 s without a shed; 8,000 with the capacity
	// sweep's queue bound of 64 shed in every run.
	mixRate = 4000.0
	// mixQueueBound is each engine's ingress queue bound. The capacity
	// sweep's 64 sheds whenever the host stalls the process for ~7 ms,
	// which a shared 2-vCPU host does every few seconds; 256 absorbs
	// stalls of ~50 ms, so a shed means the stack fell behind.
	mixQueueBound = 256
	mixPool       = 256 // inference inputs
	mixScanPool   = 64  // analytics inputs
	mixFanout     = 8   // elements of a batch-8 request; keys are i*8+j
)

// mixClass is a mix-open request class.
type mixClass struct {
	name   string
	weight float64
	batch  int
	scan   bool // draws from the analytics input pool
}

var mixClasses = []mixClass{
	{"nn-b1", 0.70, 1, false},
	{"nn-b8", 0.20, mixFanout, false},
	{"analytics-b1", 0.10, 1, true},
}

// pickClass is request i's class: a seeded weighted draw.
func pickClass(seed int64, i uint64) mixClass {
	u, acc := unit(seed, streamClass, i), 0.0
	for _, c := range mixClasses {
		if acc += c.weight; u <= acc {
			return c
		}
	}
	return mixClasses[len(mixClasses)-1]
}

type mixOpen struct {
	keyedIDs
	seed   int64
	cfg    dpe.Config
	net    *nn.Network
	inputs [][]float64 // mixPool inference inputs, then mixScanPool scans
	want   [][]float64
}

func newMixOpen(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	const dim = 16
	net, err := nn.NewMLP("mix-open", []int{dim, 16, 10}, rng)
	if err != nil {
		return nil, err
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	cfg.Seed = seed
	inputs := randomInputs(rng, mixPool, dim)
	// Analytics scans: sparse 0/1 selection vectors.
	for i := 0; i < mixScanPool; i++ {
		in := make([]float64, dim)
		for j := range in {
			if rng.Intn(4) == 0 {
				in[j] = 1
			}
		}
		inputs = append(inputs, in)
	}
	return &mixOpen{seed: seed, cfg: cfg, net: net, inputs: inputs}, nil
}

func (w *mixOpen) setup(tr *tracer) (*stack, setupTimes, error) {
	var t setupTimes
	opts := []fleet.Option{
		fleet.WithEngines(2),
		fleet.WithPolicy(fleet.LeastLoaded()),
		fleet.WithServeOptions(serve.WithBatch(16, 100*time.Microsecond), serve.WithQueueBound(mixQueueBound)),
	}
	var wrapErr error
	if tr != nil {
		opts = append(opts, fleet.WithWrapBackend(func(_ int, b serve.Backend, _ *metrics.Registry) serve.Backend {
			et := tr.engine()
			inner, err := et.wrap(b, true)
			if err != nil {
				wrapErr = err
				return b
			}
			outer, err := et.wrap(inner, false)
			if err != nil {
				wrapErr = err
				return b
			}
			return outer
		}))
	}
	start := time.Now()
	fl, _, err := fleet.New(w.cfg, w.net, opts...)
	if err != nil {
		return nil, t, err
	}
	t.total = time.Since(start)
	t.dpe = t.total
	if wrapErr != nil {
		fl.Close()
		return nil, t, wrapErr
	}
	return fleetStack(fl, nil), t, nil
}

func (w *mixOpen) oracle() (err error) {
	w.want, err = oracleOutputs(w.cfg, w.net, w.inputs, nil)
	return err
}

// inputOf is the input index of element key under class c.
func (w *mixOpen) inputOf(c mixClass, key uint64) uint64 {
	if c.scan {
		return mixPool + draw(w.seed, streamInput, key)%mixScanPool
	}
	return draw(w.seed, streamInput, key) % mixPool
}

func (w *mixOpen) drive(st *stack, clk clock, win window, traced bool) *runLog {
	due := poissonDue(w.seed, mixRate, int64(win.warm+win.length))
	log := openLoop(clk, due, win, st.simPS, func(i uint64, r *reqRec) {
		c := pickClass(w.seed, i)
		if traced {
			r.calls = make([]call, c.batch)
		}
		outs := make([]outcome, c.batch)
		pjs := make([]float64, c.batch)
		element := func(j int) {
			key := i*mixFanout + uint64(j)
			idx := w.inputOf(c, key)
			submit := clk.now()
			out, cost, err := st.fl.SubmitSeq(context.Background(), key, w.inputs[idx])
			outs[j] = classify(err)
			if err == nil {
				pjs[j] = cost.EnergyPJ
				if !equal(out, w.want[idx]) {
					outs[j] = wrongReply
				}
			}
			if traced {
				r.calls[j] = call{id: key, submit: submit, ret: clk.now(), replied: err == nil}
			}
		}
		if c.batch == 1 {
			element(0)
		} else {
			done := make(chan struct{}, c.batch)
			for j := 0; j < c.batch; j++ {
				go func(j int) {
					element(j)
					done <- struct{}{}
				}(j)
			}
			for j := 0; j < c.batch; j++ {
				<-done
			}
		}
		r.outcome = okReply
		for j := range outs {
			r.outcome = worse(r.outcome, outs[j])
			r.pj += pjs[j]
		}
	})
	log.checked = -1
	return log
}

// ---- noisy-rolling ------------------------------------------------------

const (
	noisyClients = 32
	noisyPool    = 256
	// noisyRollEvery is how many requests separate rolling reprograms:
	// about one per quarter of a 30 s window plus warm-up at the ~330
	// req/s this workload ran at on a 2-core Xeon @ 2.1GHz.
	noisyRollEvery = 2700
	// noisySampleEvery: one request key in this many is checked against
	// the oracle.
	noisySampleEvery = 128
	// noisyKeyCap bounds the keys the oracle covers, three times what
	// such a run uses. Keys past it are served but not checked; the run
	// reports how many were.
	noisyKeyCap = 12 * noisyRollEvery
)

type noisyRolling struct {
	keyedIDs
	seed       int64
	cfg        dpe.Config
	netA, netB *nn.Network
	pool       [][]float64
	want       map[uint64][2][]float64 // sampled key → outputs under A and B
}

func newNoisyRolling(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	netA, err := nn.NewMLP("noisy-rolling-a", refMLP, rng)
	if err != nil {
		return nil, err
	}
	netB, err := nn.NewMLP("noisy-rolling-b", refMLP, rng)
	if err != nil {
		return nil, err
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.02
	cfg.Seed = seed
	return &noisyRolling{seed: seed, cfg: cfg, netA: netA, netB: netB, pool: randomInputs(rng, noisyPool, refMLP[0])}, nil
}

func (w *noisyRolling) sampled(key uint64) bool {
	return key < noisyKeyCap && draw(w.seed, streamSample, key)%noisySampleEvery == 0
}

func (w *noisyRolling) inputOf(key uint64) uint64 { return draw(w.seed, streamInput, key) % noisyPool }

func (w *noisyRolling) setup(tr *tracer) (*stack, setupTimes, error) {
	var t setupTimes
	var disps []*hybrid.Dispatcher
	var wrapErr error
	// Each engine's breaker goes behind an auto-mode hybrid dispatcher
	// with no twin (a noisy config has none), which pins all traffic to
	// the crossbar side.
	wrapBackend := func(_ int, b serve.Backend, reg *metrics.Registry) serve.Backend {
		var et *engineTrace
		cim, ok := b.(hybrid.CIMBackend)
		if !ok {
			wrapErr = fmt.Errorf("cimperf: %T is not a hybrid.CIMBackend", b)
			return b
		}
		if tr != nil {
			et = tr.engine()
			inner, err := et.wrap(b, true)
			if err != nil {
				wrapErr = err
				return b
			}
			cim = inner
		}
		d, err := hybrid.New(cim, nil, hybrid.WithMode(hybrid.ModeAuto), hybrid.WithRegistry(reg))
		if err != nil {
			wrapErr = err
			return b
		}
		disps = append(disps, d)
		if et == nil {
			return d
		}
		outer, err := et.wrap(d, false)
		if err != nil {
			wrapErr = err
			return b
		}
		return outer
	}
	start := time.Now()
	fl, _, err := fleet.New(w.cfg, w.netA,
		fleet.WithEngines(2),
		fleet.WithPolicy(fleet.LeastLoaded()),
		fleet.WithServeOptions(serve.WithBatch(16, 2*time.Millisecond)),
		fleet.WithWrapBackend(wrapBackend),
	)
	if err != nil {
		return nil, t, err
	}
	t.total = time.Since(start)
	t.dpe = t.total
	if wrapErr != nil {
		fl.Close()
		return nil, t, wrapErr
	}
	return fleetStack(fl, disps), t, nil
}

func (w *noisyRolling) oracle() error {
	var keys []uint64
	var inputs [][]float64
	for k := uint64(0); k < noisyKeyCap; k++ {
		if w.sampled(k) {
			keys = append(keys, k)
			inputs = append(inputs, w.pool[w.inputOf(k)])
		}
	}
	a, err := oracleOutputs(w.cfg, w.netA, inputs, keys)
	if err != nil {
		return err
	}
	b, err := oracleOutputs(w.cfg, w.netB, inputs, keys)
	if err != nil {
		return err
	}
	w.want = make(map[uint64][2][]float64, len(keys))
	for i, k := range keys {
		w.want[k] = [2][]float64{a[i], b[i]}
	}
	return nil
}

func (w *noisyRolling) drive(st *stack, clk clock, win window, traced bool) *runLog {
	var next, checked atomic.Int64
	// A client that takes a multiple of noisyRollEvery asks for a roll.
	// The buffer holds requests that arrive while a roll runs; with rolls
	// far apart it never fills, and a full buffer only merges two rolls.
	rollReq := make(chan struct{}, 4)
	stopRoll := make(chan struct{})
	rollDone := make(chan []rollRec)
	go func() {
		var rolls []rollRec
		defer func() { rollDone <- rolls }()
		for r := 0; ; r++ {
			select {
			case <-stopRoll:
				return
			case <-rollReq:
			}
			net := w.netB
			if r%2 == 1 {
				net = w.netA
			}
			start := time.Now()
			rep := st.fl.RollingReprogram(net)
			rolls = append(rolls, rollRec{
				wallNS:      int64(time.Since(start)),
				visiblePS:   rep.Visible.LatencyPS,
				hiddenPJ:    rep.Hidden.EnergyPJ,
				failedCount: rep.Failed,
			})
		}
	}()
	log := closedLoop(clk, noisyClients, win, st.simPS, func(_ int, _ uint64, r *reqRec) {
		key := uint64(next.Add(1) - 1)
		if key > 0 && key%noisyRollEvery == 0 {
			select {
			case rollReq <- struct{}{}:
			default:
			}
		}
		out, cost, err := st.fl.SubmitSeq(context.Background(), key, w.pool[w.inputOf(key)])
		r.outcome = classify(err)
		if err == nil {
			r.pj = cost.EnergyPJ
			if want, ok := w.want[key]; ok {
				checked.Add(1)
				if !equal(out, want[0]) && !equal(out, want[1]) {
					r.outcome = wrongReply
				}
			}
		}
		if traced {
			r.calls = []call{{id: key, submit: r.start, ret: clk.now(), replied: err == nil}}
		}
	})
	close(stopRoll)
	log.rolls = <-rollDone
	log.checked = checked.Load()
	return log
}
