package main

// The traced run's instrumentation. Spans are recorded from outside the
// program: a wrapper around each backend the benchmark hands to
// serve.New, hybrid.New and fleet.WithWrapBackend times every call into
// it. An outer wrapper sits where serve's dispatcher calls the backend
// (one span per flush); an inner wrapper sits where the hybrid
// dispatcher calls the crossbar side, so a flush's time splits into
// dispatcher self time and CIM time, and a flush the inner wrapper never
// saw went to the Von Neumann twin.

import (
	"fmt"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
)

// fullBackend is the method set of every backend the benchmark wraps
// (serve.Breaker and hybrid.Dispatcher). serve chooses its code path by
// asserting InferBatchCtx and InferBatchKeyedCtx, and hybrid by asserting
// Reprogram, so a wrapper must offer exactly what its target offers: it
// forwards all four, and wrap refuses a target that lacks any of them.
type fullBackend interface {
	InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
	Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error)
}

// flushSpan is one flush: one call from a serve dispatcher into its
// backend.
type flushSpan struct {
	start, end int64 // ns since the run's base time
	items      int
	ok         bool     // the backend returned no error
	cim        bool     // the CIM-side wrapper ran inside this flush
	cimNS      int64    // time spent inside the CIM-side wrapper
	ids        []uint64 // the requests carried: noise keys, or client ids
}

// engineTrace holds one serving engine's flush spans. A serve.Server
// flushes from a single dispatcher goroutine, and the inner wrapper runs
// inside the outer one on that goroutine, so the spans need no lock; they
// are read only after the server has closed.
type engineTrace struct {
	clk   clock
	ids   func(inputs [][]float64, seqs []uint64) []uint64
	spans []flushSpan
	cur   *flushSpan // the flush in progress, for the inner wrapper
}

// tracer owns every engine's spans for one traced run.
type tracer struct {
	clk     clock
	ids     func(inputs [][]float64, seqs []uint64) []uint64
	engines []*engineTrace
}

func newTracer(clk clock, ids func(inputs [][]float64, seqs []uint64) []uint64) *tracer {
	return &tracer{clk: clk, ids: ids}
}

// engine starts the span log of one more serving engine.
func (tr *tracer) engine() *engineTrace {
	et := &engineTrace{clk: tr.clk, ids: tr.ids}
	tr.engines = append(tr.engines, et)
	return et
}

// traced wraps one backend. The outer wrapper records a flushSpan per
// call; the inner (CIM-side) wrapper adds its time to the enclosing
// flush. Reprogram passes through untimed via the embedded target.
type traced struct {
	fullBackend
	et    *engineTrace
	inner bool
}

// wrap returns a tracing wrapper around target, or an error when target
// lacks a method of fullBackend: wrapping it would hand serve or hybrid a
// method set the untraced program does not have.
func (et *engineTrace) wrap(target serve.Backend, inner bool) (*traced, error) {
	fb, ok := target.(fullBackend)
	if !ok {
		return nil, fmt.Errorf("cimperf: cannot trace %T without changing its code path", target)
	}
	return &traced{fullBackend: fb, et: et, inner: inner}, nil
}

func (t *traced) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return t.timed(inputs, nil, func() ([][]float64, energy.Cost, error) {
		return t.fullBackend.InferBatch(inputs)
	})
}

func (t *traced) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	return t.timed(inputs, nil, func() ([][]float64, energy.Cost, error) {
		return t.fullBackend.InferBatchCtx(pc, inputs)
	})
}

func (t *traced) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	return t.timed(inputs, seqs, func() ([][]float64, energy.Cost, error) {
		return t.fullBackend.InferBatchKeyedCtx(pc, seqs, inputs)
	})
}

func (t *traced) timed(inputs [][]float64, seqs []uint64, call func() ([][]float64, energy.Cost, error)) ([][]float64, energy.Cost, error) {
	et := t.et
	if t.inner {
		start := et.clk.now()
		outs, cost, err := call()
		if et.cur != nil {
			et.cur.cim = true
			et.cur.cimNS += et.clk.now() - start
		}
		return outs, cost, err
	}
	sp := flushSpan{start: et.clk.now(), items: len(inputs), ids: et.ids(inputs, seqs)}
	et.cur = &sp
	outs, cost, err := call()
	et.cur = nil
	sp.end = et.clk.now()
	sp.ok = err == nil
	et.spans = append(et.spans, sp)
	return outs, cost, err
}

// clock measures time as nanoseconds since a fixed base.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }
