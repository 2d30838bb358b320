package crossbar

import (
	"fmt"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// Tile aggregates a grid of crossbars to hold matrices larger than one
// array, mirroring the paper's Fig 5 hierarchy (micro-units composed into
// units and tiles). An M x N matrix is split into ceil(M/Rows) x
// ceil(N/Cols) blocks; block results merge with digital adds. All blocks
// compute in parallel (each owns its arrays and converters), so MVM latency
// is one block MVM plus the merge, while energy sums across blocks.
//
// The simulator mirrors the hardware's spatial parallelism: independent
// blocks of Program and MVM fan out across the internal/parallel worker
// pool, with per-block results merged in fixed (row, column) order so cost
// totals and outputs are bit-identical to serial execution at any pool
// width. Analog read noise no longer forces sequential evaluation: each
// block derives its own counter-based noise stream (ns.Derive(blockIndex)),
// so the draw applied to any (block, bit, slice, column) is a pure function
// of position, not of goroutine schedule (see internal/noise and
// docs/PARALLELISM.md). A Tile's mutating methods are not safe for
// concurrent use from multiple goroutines, while MVM on a programmed tile —
// noisy or not — is read-only and may be called concurrently.
type Tile struct {
	cfg        Config
	blocks     [][]*Crossbar // blocks[br][bc]
	rows, cols int           // programmed logical dims
	programmed bool
	// pastWrites preserves wear from arrays discarded by a reshaping
	// reprogram, so lifetime write counts survive reconfiguration.
	pastWrites int64
	// faults / faultSrc configure device-fault injection for every block:
	// block b derives the child source faultSrc.Derive(b), so fault
	// positions are a pure function of (tile source, block, cell) and
	// parallel block programming is bit-identical to serial.
	faults   faultinject.Model
	faultSrc noise.Source
	// scratch pools per-MVM block outputs and costs so steady-state tile
	// MVMs stop allocating a slab per call. Pooled (not a plain field)
	// because a programmed tile may serve concurrent MVMs. batchScratch
	// is the same for the batched dispatch path (tile_batch.go).
	scratch      sync.Pool
	batchScratch sync.Pool
}

// tileScratch is the reusable per-MVM workspace for a tile: one output
// slab (stride cfg.Cols per block) and one cost slot per block.
type tileScratch struct {
	outs  []float64
	costs []energy.Cost
}

// NewTile returns an empty tile that will allocate crossbars on Program.
func NewTile(cfg Config) (*Tile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tile{cfg: cfg}, nil
}

// Config returns the tile's per-crossbar configuration.
func (t *Tile) Config() Config { return t.cfg }

// Shape returns the programmed logical matrix dimensions.
func (t *Tile) Shape() (rows, cols int) { return t.rows, t.cols }

// BlockGrid returns the crossbar grid dimensions.
func (t *Tile) BlockGrid() (brows, bcols int) {
	if len(t.blocks) == 0 {
		return 0, 0
	}
	return len(t.blocks), len(t.blocks[0])
}

// CrossbarCount returns the number of physical crossbars in use.
func (t *Tile) CrossbarCount() int {
	br, bc := t.BlockGrid()
	return br * bc
}

// SetFaults installs a device-fault model for every block of the tile,
// effective from the next Program. Each block derives its own child fault
// source by block index, so which cells are stuck never depends on pool
// width or programming order. A zero model disables injection.
func (t *Tile) SetFaults(m faultinject.Model, src noise.Source) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Enabled() && !src.Valid() {
		return fmt.Errorf("crossbar: enabled fault model requires a fault source")
	}
	t.faults = m
	t.faultSrc = src
	return nil
}

// FaultsEnabled reports whether device-fault injection is active.
func (t *Tile) FaultsEnabled() bool { return t.faults.Enabled() }

// FaultReport aggregates the per-block fault reports of the most recent
// Program pass in fixed (block-row, block-col) order.
func (t *Tile) FaultReport() faultinject.Report {
	var rep faultinject.Report
	for _, row := range t.blocks {
		for _, b := range row {
			rep.Add(b.FaultReport())
		}
	}
	return rep
}

// Writes returns total lifetime cell-programming operations, including
// wear on arrays retired by reshaping reprograms.
func (t *Tile) Writes() int64 {
	n := t.pastWrites
	for _, row := range t.blocks {
		for _, b := range row {
			n += b.Writes()
		}
	}
	return n
}

// Program loads an arbitrary M x N matrix, allocating the block grid. It
// returns the programming cost: blocks program in parallel (latency = max
// block latency), energy sums. Program is the row-major adapter over the
// column-major path ProgramColumns takes: each block is gathered into a
// column-major buffer the size of one crossbar, so no transposed copy of
// w is built.
func (t *Tile) Program(w [][]float64) (energy.Cost, error) {
	return t.ProgramCtx(obs.Ctx{}, w)
}

// ProgramCtx is Program under a trace span: the whole tile write is a
// "tile.program" child of pc, with one "xbar.program" grandchild per block
// (blocks program from pool workers; span recording is concurrency-safe).
// A zero Ctx traces nothing.
func (t *Tile) ProgramCtx(pc obs.Ctx, w [][]float64) (energy.Cost, error) {
	a, err := rowMajor(w)
	if err != nil {
		return energy.Zero, err
	}
	return t.program(pc, a)
}

// ProgramColumns loads the M x N matrix given column-major — wT[c][r] is
// the weight at row r, column c, so wT has N columns of M entries — with
// exactly the stored levels, costs, and wear Program(w) produces for the
// row-major w. It is the arrays' native layout (and nn.Dense.W's), so no
// transpose happens anywhere on this path.
func (t *Tile) ProgramColumns(wT [][]float64) (energy.Cost, error) {
	return t.ProgramColumnsCtx(obs.Ctx{}, wT)
}

// ProgramColumnsCtx is ProgramColumns under the same "tile.program" span
// ProgramCtx records.
func (t *Tile) ProgramColumnsCtx(pc obs.Ctx, wT [][]float64) (energy.Cost, error) {
	a, err := colMajor(wT)
	if err != nil {
		return energy.Zero, err
	}
	return t.program(pc, a)
}

func (t *Tile) program(pc obs.Ctx, a matrix) (energy.Cost, error) {
	m, n := a.rows, a.cols

	sp := pc.Child("tile.program")

	brows, bcols := t.cfg.grid(m, n)

	// Same logical shape: reprogram the existing arrays in place so wear
	// accumulates on the physical cells. A reshape retires the old arrays
	// (their wear is preserved in pastWrites) and allocates fresh ones.
	reuse := t.programmed && t.rows == m && t.cols == n
	if !reuse {
		for _, row := range t.blocks {
			for _, b := range row {
				t.pastWrites += b.Writes()
			}
		}
		t.blocks = make([][]*Crossbar, brows)
		for br := range t.blocks {
			t.blocks[br] = make([]*Crossbar, bcols)
		}
	}

	// Blocks are independent (each owns its arrays), so programming fans
	// out across the worker pool; per-block costs are folded afterwards in
	// fixed (br, bc) order so the accumulated energy is bit-identical to a
	// serial run at any pool width.
	blockCosts := make([]energy.Cost, brows*bcols)
	err := parallel.ForErr(brows*bcols, func(b int) error {
		br, bc := b/bcols, b%bcols
		xb := t.blocks[br][bc]
		if xb == nil {
			var err error
			xb, err = New(t.cfg)
			if err != nil {
				return err
			}
			t.blocks[br][bc] = xb
		}
		// (Re)install the fault model before programming: block b keys
		// its faults off the derived child source, so stuck positions are
		// stable across reprograms and pool widths. Idempotent when the
		// model is unchanged; a zero model is a disable.
		bsrc := NoNoise
		if t.faultSrc.Valid() {
			bsrc = t.faultSrc.Derive(uint64(b))
		}
		if err := xb.SetFaults(t.faults, bsrc); err != nil {
			return fmt.Errorf("crossbar: block (%d,%d) faults: %w", br, bc, err)
		}
		c, err := xb.programBlockCtx(sp, t.cfg.gridBlock(a, bcols, b))
		if err != nil {
			return fmt.Errorf("crossbar: program block (%d,%d): %w", br, bc, err)
		}
		blockCosts[b] = c
		return nil
	})
	if err != nil {
		sp.End(energy.Zero)
		return energy.Zero, err
	}
	cost := energy.Zero
	for _, c := range blockCosts {
		cost = cost.Par(c)
	}
	t.rows, t.cols = m, n
	t.programmed = true
	if sp.Active() {
		sp.Annotate("blocks", float64(brows*bcols))
	}
	sp.End(cost)
	return cost, nil
}

// MVM computes y = W · input across the block grid. Blocks run in parallel
// regardless of noise: block b draws from the derived stream ns.Derive(b),
// so noisy outputs are bit-identical at any worker-pool width. Partial
// results for each column-block are merged with digital adds in fixed
// (br, bc) order.
func (t *Tile) MVM(input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	return t.MVMCtx(obs.Ctx{}, input, ns)
}

// MVMCtx is MVM under a trace span: the tile-level MVM is a "tile.mvm"
// child of pc with one "xbar.mvm" grandchild per block. With a zero Ctx it
// is the plain kernel plus per-block nil-check branches — the serving hot
// path stays allocation-free when tracing is off.
func (t *Tile) MVMCtx(pc obs.Ctx, input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	sp := pc.Child("tile.mvm")
	out, cost, err := t.mvm(sp, input, ns)
	sp.End(cost)
	return out, cost, err
}

func (t *Tile) mvm(sp obs.Ctx, input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	if !t.programmed {
		return nil, energy.Zero, fmt.Errorf("crossbar: tile MVM before Program")
	}
	if len(input) != t.rows {
		return nil, energy.Zero, fmt.Errorf("crossbar: input length %d != rows %d", len(input), t.rows)
	}

	brows, bcols := t.BlockGrid()
	nb := brows * bcols
	s := t.getScratch(nb)
	defer t.scratch.Put(s)

	// Evaluate the independent blocks, fanning out across the worker pool.
	// Each block writes its partial result into a private stripe of the
	// pooled slab via MVMInto (no per-block allocation), and noisy blocks
	// consume their own derived stream, so no state is shared between
	// goroutines. The merge below runs in fixed order, so outputs and cost
	// totals are bit-identical to serial execution at any pool width.
	stride := t.cfg.Cols
	err := parallel.ForErr(nb, func(b int) error {
		br, bc := b/bcols, b%bcols
		r0 := br * t.cfg.Rows
		r1 := min(r0+t.cfg.Rows, t.rows)
		c0 := bc * t.cfg.Cols
		c1 := min(c0+t.cfg.Cols, t.cols)
		bns := NoNoise
		if ns.Valid() {
			bns = ns.Derive(uint64(b))
		}
		dst := s.outs[b*stride : b*stride+(c1-c0)]
		c, err := t.blocks[br][bc].MVMIntoCtx(sp, dst, input[r0:r1], bns)
		if err != nil {
			return fmt.Errorf("crossbar: block (%d,%d) MVM: %w", br, bc, err)
		}
		s.costs[b] = c
		return nil
	})
	if err != nil {
		return nil, energy.Zero, err
	}

	// Deterministic reduction: digital adds in (br, bc) order.
	out := make([]float64, t.cols)
	cost := energy.Zero
	for b := 0; b < nb; b++ {
		cost = cost.Par(s.costs[b])
		c0 := (b % bcols) * t.cfg.Cols
		c1 := min(c0+t.cfg.Cols, t.cols)
		stripe := s.outs[b*stride : b*stride+(c1-c0)]
		for i, v := range stripe {
			out[c0+i] += v
		}
	}
	// Digital merge: one add per partial element beyond the first block row.
	if brows > 1 {
		merges := int64(brows-1) * int64(t.cols)
		cost = cost.Seq(energy.Cost{
			LatencyPS: energy.EDRAMAccessLatencyPS,
			EnergyPJ:  float64(merges) * energy.ShiftAddEnergyPJ,
		})
	}
	return out, cost, nil
}

// getScratch pops (or grows) a pooled workspace sized for nb blocks.
func (t *Tile) getScratch(nb int) *tileScratch {
	s, _ := t.scratch.Get().(*tileScratch)
	if s == nil {
		s = &tileScratch{}
	}
	if need := nb * t.cfg.Cols; cap(s.outs) < need {
		s.outs = make([]float64, need)
	} else {
		s.outs = s.outs[:need]
	}
	if cap(s.costs) < nb {
		s.costs = make([]energy.Cost, nb)
	} else {
		s.costs = s.costs[:nb]
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
