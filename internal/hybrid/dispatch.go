// Package hybrid routes serving flushes between a crossbar backend and
// its executing Von Neumann twin (vonneumann.Backend) — the runtime form
// of the paper's Section III.F Von Neumann/CIM interaction. A Dispatcher
// is a serve.Backend that picks, per flush, whichever backend a
// calibrated cost model says is cheaper; the twin is bit-exact on
// deterministic configs, so the choice changes only simulated cost,
// never outputs (docs/HYBRID.md).
package hybrid

import (
	"fmt"
	"sync/atomic"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/vonneumann"
)

// Mode selects the dispatch policy.
type Mode int

const (
	// ModeCIM routes every flush to the crossbar backend — the pre-hybrid
	// behavior, and the default.
	ModeCIM Mode = iota
	// ModeVN routes every flush to the Von Neumann twin. It requires a
	// twin, which in turn requires a deterministic (noise-free) config.
	ModeVN
	// ModeAuto routes each flush by the cost model: keyed (noisy-intent)
	// traffic and all traffic on twin-less (noisy or faulty) deployments
	// pin to CIM; the rest follows the calibrated crossover.
	ModeAuto
)

// String names the mode as the -dispatch flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeCIM:
		return "cim"
	case ModeVN:
		return "vn"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a -dispatch flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cim":
		return ModeCIM, nil
	case "vn":
		return ModeVN, nil
	case "auto":
		return ModeAuto, nil
	default:
		return 0, fmt.Errorf("hybrid: unknown dispatch mode %q (want cim, vn, or auto)", s)
	}
}

// CIMBackend is the crossbar side of the dispatcher: the batch-inference
// surface shared by dpe.Engine, serve.ShadowPair, and serve.Breaker.
type CIMBackend interface {
	InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// Reprogrammer is the weight-update surface of serve.ShadowPair and
// serve.Breaker. A CIMBackend that also implements it gets dispatcher-
// coordinated reprograms: Dispatcher.Reprogram suspends Von Neumann
// routing, swaps the crossbar side, reloads the twin, and resumes.
type Reprogrammer interface {
	Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error)
}

// Dispatcher routes inference flushes between a crossbar backend and its
// executing Von Neumann twin. Because the twin is bit-exact on
// deterministic configs (vonneumann.Backend's contract), routing is
// invisible in the outputs — only the simulated cost changes — so the
// dispatcher is free to chase the cheaper backend per flush.
//
// Routing rules, in order:
//
//   - Forced modes (cim, vn) always use their backend, except that vn
//     falls back to CIM while a reprogram is in flight (the twin is
//     mid-swap and must not serve stale weights).
//   - Keyed traffic in auto mode pins to CIM: request keys declare
//     noise intent, and fleet determinism depends on the engine's keyed
//     noise derivation even when the current config draws nothing.
//   - Twin-less dispatchers (noisy or faulty deployments have no digital
//     twin) pin everything to CIM in auto mode.
//   - Everything else follows the calibrator: a static crossover model
//     seeded from the shared CIM board constants and the twin's exact
//     roofline prior, refined per batch-size class by an EWMA over
//     observed flush costs.
//
// A Dispatcher is a serve.Backend (plus the ctx and keyed extensions), so
// it slots between a Breaker and a serve.Server unchanged.
type Dispatcher struct {
	cim  CIMBackend
	vn   *vonneumann.Backend
	rep  Reprogrammer
	mode Mode
	cal  *calibrator

	// suspended parks Von Neumann routing while a reprogram swaps both
	// backends; flushes fall back to CIM (the pair serves throughout).
	suspended atomic.Bool

	cntCIM    *metrics.Counter
	cntVN     *metrics.Counter
	cntPinned *metrics.Counter
}

// config collects dispatcher options.
type dispatcherConfig struct {
	mode       Mode
	reg        *metrics.Registry
	probeEvery int
}

// Option configures a Dispatcher.
type Option func(*dispatcherConfig)

// WithMode sets the dispatch policy (default ModeCIM).
func WithMode(m Mode) Option { return func(c *dispatcherConfig) { c.mode = m } }

// WithRegistry records dispatch.cim, dispatch.vn, and dispatch.pinned_noisy
// request counters into reg — pass the serving registry so routing shows
// up next to the serve.* series on /metrics.
func WithRegistry(reg *metrics.Registry) Option { return func(c *dispatcherConfig) { c.reg = reg } }

// WithProbeEvery sets how often auto mode routes against its preference
// to refresh the other backend's estimate (default every 16th flush per
// batch-size class).
func WithProbeEvery(n int) Option { return func(c *dispatcherConfig) { c.probeEvery = n } }

// New builds a dispatcher over a crossbar backend and an optional Von
// Neumann twin. A nil twin is legal except in ModeVN: it means the
// deployment has no digital twin (noisy or faulty config), and auto mode
// pins all its traffic to CIM. If cim also implements Reprogrammer,
// Dispatcher.Reprogram coordinates weight swaps across both backends.
func New(cim CIMBackend, vn *vonneumann.Backend, opts ...Option) (*Dispatcher, error) {
	if cim == nil {
		return nil, fmt.Errorf("hybrid: nil CIM backend")
	}
	cfg := dispatcherConfig{mode: ModeCIM, probeEvery: defaultProbeEvery}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mode == ModeVN && vn == nil {
		return nil, fmt.Errorf("hybrid: mode vn requires a Von Neumann twin (deterministic config)")
	}
	if cfg.reg == nil {
		cfg.reg = metrics.NewRegistry()
	}
	d := &Dispatcher{
		cim:       cim,
		vn:        vn,
		mode:      cfg.mode,
		cntCIM:    cfg.reg.Counter("dispatch.cim"),
		cntVN:     cfg.reg.Counter("dispatch.vn"),
		cntPinned: cfg.reg.Counter("dispatch.pinned_noisy"),
	}
	d.rep, _ = cim.(Reprogrammer)
	if vn != nil {
		d.cal = newCalibrator(cfg.probeEvery, cimSeed(vn.Network()), func(n int) float64 {
			return float64(vn.PredictBatchCost(n).LatencyPS) / float64(n)
		})
	}
	return d, nil
}

// Mode returns the dispatch policy.
func (d *Dispatcher) Mode() Mode { return d.mode }

// Counts returns the routed-request totals: CIM-routed, VN-routed, and
// CIM-pinned (keyed or twin-less traffic in auto mode).
func (d *Dispatcher) Counts() (cim, vn, pinned int64) {
	return d.cntCIM.Value(), d.cntVN.Value(), d.cntPinned.Value()
}

// InferBatch routes one unkeyed flush.
func (d *Dispatcher) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return d.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx routes one unkeyed flush under a trace span context.
func (d *Dispatcher) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	n := int64(len(inputs))
	useVN := false
	switch d.mode {
	case ModeVN:
		useVN = !d.suspended.Load()
	case ModeAuto:
		if d.vn == nil {
			d.cntPinned.Add(n)
			return d.cim.InferBatchCtx(pc, inputs)
		}
		useVN = !d.suspended.Load() && d.cal.choose(len(inputs))
	}
	if useVN {
		d.cntVN.Add(n)
		outs, cost, err := d.vn.InferBatchCtx(pc, inputs)
		if err == nil {
			d.observe(len(inputs), true, cost)
		}
		return outs, cost, err
	}
	d.cntCIM.Add(n)
	outs, cost, err := d.cim.InferBatchCtx(pc, inputs)
	if err == nil {
		d.observe(len(inputs), false, cost)
	}
	return outs, cost, err
}

// InferBatchKeyedCtx routes one keyed flush. Auto mode pins keyed traffic
// to CIM (the keys declare noise intent); forced vn mode serves it from
// the twin keyless, which is exact because a twin only exists for
// deterministic configs, where keys consume no noise draws.
func (d *Dispatcher) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	n := int64(len(inputs))
	if d.mode == ModeVN && !d.suspended.Load() {
		d.cntVN.Add(n)
		outs, cost, err := d.vn.InferBatchCtx(pc, inputs)
		if err == nil {
			d.observe(len(inputs), true, cost)
		}
		return outs, cost, err
	}
	if d.mode == ModeAuto {
		d.cntPinned.Add(n)
	} else {
		d.cntCIM.Add(n)
	}
	outs, cost, err := d.cim.InferBatchKeyedCtx(pc, seqs, inputs)
	if err == nil && d.mode != ModeAuto {
		d.observe(len(inputs), false, cost)
	}
	return outs, cost, err
}

// observe feeds a successful flush into the calibrator, if there is one.
func (d *Dispatcher) observe(n int, vn bool, cost energy.Cost) {
	if d.cal != nil {
		d.cal.observe(n, vn, cost.LatencyPS)
	}
}

// Estimates reports the calibrator's current per-item latency estimates
// (in picoseconds) for batch size n, or ok=false on twin-less dispatchers.
func (d *Dispatcher) Estimates(n int) (cimPS, vnPS float64, ok bool) {
	if d.cal == nil {
		return 0, 0, false
	}
	cimPS, vnPS = d.cal.estimates(n)
	return cimPS, vnPS, true
}

// Reprogram swaps weights on both backends atomically with respect to
// routing: Von Neumann routing is suspended (flushes fall back to the CIM
// side, which the underlying pair keeps serving mid-swap), the wrapped
// Reprogrammer performs the crossbar swap, and on success the twin is
// requantized from the same network before routing resumes. A twin reload
// failure is returned after the crossbar swap has already happened — the
// caller's view is the same as a Breaker reprogram failure mid-retry.
func (d *Dispatcher) Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error) {
	if d.rep == nil {
		return energy.Zero, energy.Zero, fmt.Errorf("hybrid: CIM backend does not support Reprogram")
	}
	d.suspended.Store(true)
	defer d.suspended.Store(false)
	visible, hidden, err = d.rep.Reprogram(net)
	if err != nil {
		return visible, hidden, err
	}
	if d.vn != nil {
		if rerr := d.vn.Reload(net); rerr != nil {
			return visible, hidden, fmt.Errorf("hybrid: twin reload after reprogram: %w", rerr)
		}
	}
	return visible, hidden, nil
}
