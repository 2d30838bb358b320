// Package serve is the request-level inference serving pipeline: it fans
// millions of small, independent Infer calls into the fast batched kernels
// underneath (dpe.Engine.InferBatch / dpe.Cluster.InferBatch), which is
// where the Section VI throughput claims actually live. "Breaking
// Barriers" (Crafton et al., PAPERS.md) makes the point sharply: CIM
// throughput is dominated by array *utilization*, not raw array speed, and
// a serial request stream leaves the crossbars idle between requests.
//
// The pipeline has three pieces:
//
//   - An adaptive micro-batcher (Server): requests enter a bounded ingress
//     queue; a dispatcher drains it into batches, flushing when MaxBatch
//     requests have accumulated or MaxDelay has elapsed since the batch
//     opened — whichever comes first. Light load pays one deadline of extra
//     latency at most; heavy load amortizes toward full batches.
//   - Explicit backpressure and cancellation: the ingress queue holds at
//     most QueueBound requests. Past the high-water mark, Submit fails fast
//     with ErrOverloaded instead of growing an unbounded queue. Submit also
//     honors context.Context: a caller that cancels stops waiting with
//     ErrCanceled, and the flush loop skips requests whose context died
//     while they sat in the queue — abandoned work is shed, not computed.
//   - Observability: per-request wall-clock latency lands in a lock-free
//     metrics.Histogram (p50/p95/p99 via HistogramSnapshot.Quantile), the
//     simulated cost algebra (internal/energy) keeps running totals of
//     virtual busy time and energy, and an optional obs.Tracer records one
//     "serve.flush" span per batch with the whole engine/crossbar span tree
//     beneath it (docs/OBSERVABILITY.md). All metric handles are interned
//     once at construction; the request hot path never does a registry
//     lookup.
//
// Zero-downtime weight updates are the fourth piece, in shadow.go: a
// ShadowPair programs a standby engine while the live one keeps serving,
// then swaps atomically — the write-asymmetry hiding of Section VI realized
// as double-buffering at the serving layer. See docs/SERVING.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/obs"
)

// Backend is the batched inference kernel the pipeline feeds. Both
// *dpe.Engine and *dpe.Cluster (and *ShadowPair and *Breaker, which wrap
// engines) satisfy it.
type Backend interface {
	// InferBatch runs the batch, returning one output per input plus the
	// simulated cost of the whole batch. It must be safe for the pipeline
	// to call from its dispatcher goroutine while other goroutines read
	// engine statistics.
	InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error)
}

// ctxBackend is the optional traced variant of Backend. Backends that
// implement it (dpe.Engine, dpe.Cluster, ShadowPair, Breaker) have their
// span tree linked under the server's "serve.flush" spans; plain Backends
// still work, they just appear as leaf flushes in a trace.
type ctxBackend interface {
	InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// keyedBackend is the optional request-keyed-noise variant of Backend
// (dpe.Engine, ShadowPair, Breaker). Requests submitted via SubmitKeyed
// carry their own noise sequence numbers down to the engine, making their
// outputs a pure function of (engine config, key, input) — independent of
// batch composition, queue interleaving, or which engine of a fleet serves
// them (docs/CLUSTER.md). Backends without it serve keyed requests through
// the plain path, ignoring the keys.
type keyedBackend interface {
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// ErrOverloaded is returned by Submit when the ingress queue is at its
// high-water mark. The request was NOT enqueued; the caller owns the retry
// policy. This is the backpressure contract: past QueueBound the server
// sheds load instead of queueing without bound.
var ErrOverloaded = errors.New("serve: ingress queue full (backpressure)")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrCanceled is returned by Submit when the request's context is
// *canceled* before a result arrives. The request may still be skipped (if
// its batch had not flushed yet) or its result discarded (if it had);
// either way the caller has stopped paying for it. A context whose
// *deadline* fired gets ErrDeadlineExceeded instead — the two causes are
// distinct sentinels and are counted separately in the registry
// (serve.canceled vs serve.deadline_exceeded).
var ErrCanceled = errors.New("serve: request canceled")

// ErrDeadlineExceeded is returned by Submit when the request's context
// deadline fires before a result arrives — the latency-budget signal, as
// opposed to ErrCanceled (the caller walked away). Expired requests are
// shed at whatever stage the expiry is detected: before enqueue, while
// queued (skipped before the batch flushes, so dead work never reaches the
// crossbars), or mid-batch (the device result is discarded). The per-stage
// counters serve.deadline_pre_enqueue / serve.deadline_queued /
// serve.deadline_mid_batch account for where deadlines fire; see
// docs/RESILIENCE.md.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// expiryError wraps a context failure cause in the matching typed
// sentinel: ErrDeadlineExceeded when the deadline fired, ErrCanceled for a
// plain cancellation.
func expiryError(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, cause)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// request is one enqueued inference. keyed requests carry their own noise
// sequence number down to a keyedBackend.
type request struct {
	ctx   context.Context
	in    []float64
	seq   uint64
	keyed bool
	start time.Time
	resp  chan response
}

// response carries the result back to the waiting caller.
type response struct {
	out  []float64
	cost energy.Cost
	err  error
}

// serverMetrics holds the server's interned metric handles, resolved once
// at construction so the request and flush hot paths touch only lock-free
// atomics.
type serverMetrics struct {
	rejected    *metrics.Counter
	canceled    *metrics.Counter
	requests    *metrics.Counter
	batches     *metrics.Counter
	batchErrors *metrics.Counter
	errors      *metrics.Counter
	unhealthy   *metrics.Counter
	latencyNS   *metrics.Histogram
	batchSize   *metrics.Histogram
	energyPJ    *metrics.Gauge

	// Deadline accounting (docs/RESILIENCE.md): deadline is the cause
	// total (the sibling of canceled); the three stage counters record
	// where the expiry was detected — before enqueue, while queued (shed
	// before flush), or mid-batch (device result discarded).
	deadline           *metrics.Counter
	deadlinePreEnqueue *metrics.Counter
	deadlineQueued     *metrics.Counter
	deadlineMidBatch   *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	return serverMetrics{
		rejected:    reg.Counter("serve.rejected"),
		canceled:    reg.Counter("serve.canceled"),
		requests:    reg.Counter("serve.requests"),
		batches:     reg.Counter("serve.batches"),
		batchErrors: reg.Counter("serve.batch_errors"),
		errors:      reg.Counter("serve.errors"),
		unhealthy:   reg.Counter("serve.unhealthy"),
		latencyNS:   reg.Histogram("serve.latency_ns"),
		batchSize:   reg.Histogram("serve.batch_size"),
		energyPJ:    reg.Gauge("serve.energy_pj"),

		deadline:           reg.Counter("serve.deadline_exceeded"),
		deadlinePreEnqueue: reg.Counter("serve.deadline_pre_enqueue"),
		deadlineQueued:     reg.Counter("serve.deadline_queued"),
		deadlineMidBatch:   reg.Counter("serve.deadline_mid_batch"),
	}
}

// expire classifies a context failure, counts the cause (serve.canceled vs
// serve.deadline_exceeded), and returns the typed error the caller gets.
func (m *serverMetrics) expire(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		m.deadline.Inc()
	} else {
		m.canceled.Inc()
	}
	return expiryError(cause)
}

// Server is the micro-batching inference frontend. Construct with New;
// the zero value is not usable.
type Server struct {
	cfg     Config
	backend Backend
	cbe     ctxBackend   // non-nil iff backend implements InferBatchCtx
	kbe     keyedBackend // non-nil iff backend implements InferBatchKeyedCtx
	reg     *metrics.Registry
	met     serverMetrics
	tracer  *obs.Tracer

	// ingressMu guards the closed flag and the queue send against Close:
	// Submit holds it shared while enqueueing; Close holds it exclusively
	// while closing the channel, so no send can race the close.
	ingressMu sync.RWMutex
	closed    bool
	queue     chan *request

	dispatcherDone chan struct{}

	// simPS accumulates the simulated latency of every flushed batch:
	// the virtual time the device spent serving. Energy accumulates in
	// the "serve.energy_pj" gauge.
	simPS atomic.Int64
}

// New starts a server over backend, configured by Default() refined with
// opts. The dispatcher goroutine runs until Close.
func New(backend Backend, opts ...Option) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	cfg := build(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:            cfg,
		backend:        backend,
		reg:            reg,
		met:            newServerMetrics(reg),
		tracer:         cfg.Tracer,
		queue:          make(chan *request, cfg.QueueBound),
		dispatcherDone: make(chan struct{}),
	}
	s.cbe, _ = backend.(ctxBackend)
	s.kbe, _ = backend.(keyedBackend)
	go s.dispatch()
	return s, nil
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// QueueDepth returns how many requests currently wait in the ingress
// queue. It is a point-in-time reading, safe to call concurrently — the
// fleet router's least-loaded policy polls it on every routing decision.
func (s *Server) QueueDepth() int { return len(s.queue) }

// SimTimePS returns the accumulated simulated serving time in picoseconds:
// the sum of every flushed batch's critical-path latency. Requests per
// simulated second is requests / (SimTimePS * 1e-12).
func (s *Server) SimTimePS() int64 { return s.simPS.Load() }

// Submit submits one inference and blocks until its batch completes or ctx
// is done. The returned cost is the request's share of its batch: the full
// batch latency (the request waited for the whole batch) and 1/n of the
// batch energy. The caller must not mutate in until Submit returns.
//
// Submit fails fast with ErrOverloaded when the ingress queue is at its
// bound and with ErrClosed after Close; both leave the request unqueued.
// If ctx is canceled while the request waits, Submit returns ErrCanceled
// (wrapping ctx.Err()): a request still queued is skipped at flush time,
// one already mid-batch completes on the device but its result is
// discarded. A per-request latency budget is a ctx deadline
// (context.WithTimeout): a request that cannot complete inside it is shed
// at whatever stage the expiry is detected — before enqueue, while
// queued, or mid-batch — and the caller gets ErrDeadlineExceeded. See
// docs/RESILIENCE.md for the deadline-propagation contract.
func (s *Server) Submit(ctx context.Context, in []float64) ([]float64, energy.Cost, error) {
	return s.submit(&request{ctx: ctx, in: in})
}

// SubmitKeyed is Submit with a caller-owned noise sequence number: the
// request's analog read noise is drawn from the stream for seq instead of
// the backend engine's internal inference counter, so the output is a pure
// function of (engine config, seq, input) — identical no matter how the
// batcher groups it or which engine of a fleet serves it. Requires a
// backend implementing InferBatchKeyedCtx (dpe.Engine, ShadowPair,
// Breaker); over a plain Backend the key is ignored and SubmitKeyed
// behaves exactly like Submit. See docs/CLUSTER.md for the determinism
// contract this enables.
func (s *Server) SubmitKeyed(ctx context.Context, seq uint64, in []float64) ([]float64, energy.Cost, error) {
	return s.submit(&request{ctx: ctx, in: in, seq: seq, keyed: s.kbe != nil})
}

func (s *Server) submit(req *request) ([]float64, energy.Cost, error) {
	ctx := req.ctx
	if ctx == nil {
		ctx = context.Background()
		req.ctx = ctx
	}
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlinePreEnqueue.Inc()
		}
		return nil, energy.Zero, s.met.expire(err)
	}
	req.start = time.Now()
	req.resp = make(chan response, 1)

	s.ingressMu.RLock()
	if s.closed {
		s.ingressMu.RUnlock()
		return nil, energy.Zero, ErrClosed
	}
	select {
	case s.queue <- req:
		s.ingressMu.RUnlock()
	default:
		s.ingressMu.RUnlock()
		s.met.rejected.Inc()
		return nil, energy.Zero, ErrOverloaded
	}

	select {
	case r := <-req.resp:
		if r.err != nil {
			return nil, energy.Zero, r.err
		}
		s.met.latencyNS.Observe(float64(time.Since(req.start).Nanoseconds()))
		return r.out, r.cost, nil
	case <-ctx.Done():
		// The dispatcher will still send into the buffered resp channel
		// (or skip the request at flush); nobody is listening, nothing
		// leaks.
		return nil, energy.Zero, s.met.expire(ctx.Err())
	}
}

// Close stops accepting requests, drains everything already queued
// (in-flight callers get real responses, not errors), and waits for the
// dispatcher to exit. Close is idempotent.
func (s *Server) Close() {
	s.ingressMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.ingressMu.Unlock()
	<-s.dispatcherDone
}

// dispatch is the batcher loop: block for the first request of a batch,
// then collect until MaxBatch or MaxDelay, then flush.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := s.collect(first)
		s.flush(batch)
	}
}

// collect gathers a batch starting from first: it returns when MaxBatch
// requests are in hand, when MaxDelay has elapsed since the batch opened,
// or when the queue closes (draining flushes the remainder).
func (s *Server) collect(first *request) []*request {
	batch := make([]*request, 1, s.cfg.MaxBatch)
	batch[0] = first
	if s.cfg.MaxBatch == 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.MaxDelay)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// shedExpired splits out requests whose context died while they waited in
// the queue: each gets a typed expiry response (ErrDeadlineExceeded or
// ErrCanceled, into its buffered channel — the caller usually already left)
// and is excluded from the device batch, so dead work never reaches the
// crossbars. Only the queued-stage counter is bumped here: the *cause*
// counters (serve.canceled / serve.deadline_exceeded) are the caller's,
// incremented once in submit when the error surfaces.
func (s *Server) shedExpired(batch []*request) []*request {
	kept := batch[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.deadlineQueued.Inc()
			}
			req.resp <- response{err: expiryError(err)}
			continue
		}
		kept = append(kept, req)
	}
	return kept
}

// inferBatch invokes the backend for one flush group. Keyed groups (every
// request stamped with its own noise sequence number, keyedBackend
// available) go through InferBatchKeyedCtx; everything else takes the
// plain path, traced when the backend supports it.
func (s *Server) inferBatch(sp obs.Ctx, batch []*request, inputs [][]float64, keyed bool) ([][]float64, energy.Cost, error) {
	if keyed {
		seqs := make([]uint64, len(batch))
		for i, req := range batch {
			seqs[i] = req.seq
		}
		return s.kbe.InferBatchKeyedCtx(sp, seqs, inputs)
	}
	if s.cbe != nil {
		return s.cbe.InferBatchCtx(sp, inputs)
	}
	return s.backend.InferBatch(inputs)
}

// flush runs one collected batch through the backend. When the batch mixes
// keyed and unkeyed requests (possible only if callers mix Submit and
// SubmitKeyed on one server), it splits into two device batches so keyed
// requests never consume engine-counter sequence numbers out from under
// unkeyed ones.
func (s *Server) flush(batch []*request) {
	batch = s.shedExpired(batch)
	if len(batch) == 0 {
		return
	}
	if s.kbe == nil {
		s.flushGroup(batch, false)
		return
	}
	var keyed, plain []*request
	for _, req := range batch {
		if req.keyed {
			keyed = append(keyed, req)
		} else {
			plain = append(plain, req)
		}
	}
	if len(plain) > 0 {
		s.flushGroup(plain, false)
	}
	if len(keyed) > 0 {
		s.flushGroup(keyed, true)
	}
}

// flushGroup runs one device batch through the backend and distributes
// results. A batch-level error falls back to per-request execution so that
// one bad request (wrong input length, say) cannot poison its batchmates:
// only the offending request sees its error. Each group is one root span
// ("serve.flush") when tracing is enabled.
func (s *Server) flushGroup(batch []*request, keyed bool) {
	inputs := make([][]float64, len(batch))
	for i, req := range batch {
		inputs[i] = req.in
	}
	sp := s.tracer.Root("serve.flush")
	outs, cost, err := s.inferBatch(sp, batch, inputs, keyed)
	if sp.Active() {
		sp.Annotate("batch", float64(len(batch)))
		if err != nil {
			sp.Annotate("error", 1)
		}
	}
	sp.End(cost)
	if err != nil {
		if errors.Is(err, ErrUnhealthy) {
			// Health-driven shed: a tripped breaker (or an unhealthy
			// backend) fails every request identically, so the
			// per-request fallback below would just hammer it N more
			// times. Shed the whole batch with the typed error and let
			// callers decide whether to retry, reroute, or alarm.
			s.met.unhealthy.Add(int64(len(batch)))
			for _, req := range batch {
				req.resp <- response{err: err}
			}
			return
		}
		s.met.batchErrors.Inc()
		s.flushIndividually(batch, keyed)
		return
	}
	s.met.batches.Inc()
	s.met.requests.Add(int64(len(batch)))
	s.met.batchSize.Observe(float64(len(batch)))
	s.met.energyPJ.Add(cost.EnergyPJ)
	s.simPS.Add(cost.LatencyPS)
	share := energy.Cost{LatencyPS: cost.LatencyPS, EnergyPJ: cost.EnergyPJ / float64(len(batch))}
	for i, req := range batch {
		if errors.Is(req.ctx.Err(), context.DeadlineExceeded) {
			// The deadline fired while the request was on the device: the
			// result lands in the buffered channel but the caller has
			// already surfaced ErrDeadlineExceeded.
			s.met.deadlineMidBatch.Inc()
		}
		req.resp <- response{out: outs[i], cost: share}
	}
}

// flushIndividually retries a failed batch one request at a time,
// isolating the poison pill. Healthy requests pay single-request batch
// cost; failing ones get their own error. Keyed requests keep their keys,
// so the retried output is bit-identical to the batched one.
func (s *Server) flushIndividually(batch []*request, keyed bool) {
	for _, req := range batch {
		sp := s.tracer.Root("serve.flush_single")
		outs, cost, err := s.inferBatch(sp, []*request{req}, [][]float64{req.in}, keyed)
		sp.End(cost)
		if err != nil {
			s.met.errors.Inc()
			req.resp <- response{err: fmt.Errorf("serve: request failed: %w", err)}
			continue
		}
		s.met.batches.Inc()
		s.met.requests.Inc()
		s.met.batchSize.Observe(1)
		s.met.energyPJ.Add(cost.EnergyPJ)
		s.simPS.Add(cost.LatencyPS)
		if errors.Is(req.ctx.Err(), context.DeadlineExceeded) {
			s.met.deadlineMidBatch.Inc()
		}
		req.resp <- response{out: outs[0], cost: cost}
	}
}
