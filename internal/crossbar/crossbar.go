// Package crossbar models memristive crossbar arrays computing analog
// matrix-vector multiplication (MVM) in place — the computational primitive
// behind the paper's Dot Product Engine (Section VI) and its ISAAC ancestor
// [49].
//
// The model is honest about the analog pipeline:
//
//   - Weights are quantized to WeightBits and bit-sliced across multiple
//     physical arrays holding CellBits each (ISAAC stores 2 bits/cell).
//   - Inputs are quantized to InputBits and streamed one bit per array
//     cycle through 1-bit DACs.
//   - Each cycle, every active column's analog current sum is digitized by
//     an ADC with ADCBits resolution, which clips and quantizes.
//   - Gaussian read noise perturbs each analog column sum.
//   - Partial sums merge digitally with shift-and-add.
//
// Signed values use shift encoding: w01 = (w+1)/2 on the array, with the
// digital backend removing the offset using stored column sums. This is the
// standard trick for unipolar conductances and lets one array serve signed
// arithmetic.
//
// # Kernel layout
//
// The simulator's MVM kernel is organized for locality and zero
// steady-state allocation (see docs/PERF.md for measurements):
//
//   - Slice levels are stored column-major (sliceT[s][c*Rows+r]), so the
//     row reduction for a column is a contiguous scan.
//   - When the shape allows (≤4 slices, no 16-bit lane overflow), slices
//     are additionally packed into 16-bit lanes of one word per cell
//     (packedT), so the bit-serial gather reads every slice of a cell at
//     once and the per-slice column sums fall out of lane extraction.
//   - Active-row index lists are built once per MVM per input bit, so the
//     bit-serial loop only touches rows whose input bit is set instead of
//     testing every (row, column) cell.
//   - Shift-and-add scales come from a precomputed power-of-two table.
//   - Working buffers live in a per-crossbar sync.Pool; noise-free MVMs on
//     a programmed crossbar are read-only and safe to run concurrently.
//
// Analog read noise comes from a counter-based internal/noise Source: the
// perturbation applied to (input bit b, slice s, column c) is a pure
// function of the caller-provided source and that position, so noisy MVMs
// are bit-identical at any worker-pool width and need no draw-order
// serialization.
//
// Costs follow the constants in internal/energy. Programming (weight
// updates) is three orders of magnitude slower than reading — the write
// asymmetry Section VI names as the main scaling challenge.
package crossbar

import (
	"fmt"
	"math"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// NoNoise is the zero noise source, for MVMs on noise-free configurations.
// Passing it with ReadNoise > 0 is an error, exactly as a nil *rand.Rand
// was before the counter-based generator.
var NoNoise noise.Source

// Config describes one logical crossbar: a stack of bit-slice arrays plus
// converter resolutions.
type Config struct {
	// Rows and Cols are the physical array dimensions.
	Rows, Cols int
	// CellBits is the number of weight bits stored per cell.
	CellBits int
	// WeightBits is the total weight resolution; must be a multiple of
	// CellBits. WeightBits/CellBits physical arrays form one logical
	// crossbar.
	WeightBits int
	// InputBits is the DAC input resolution; inputs stream one bit per
	// cycle.
	InputBits int
	// ADCBits is the column ADC resolution. It must be at least 1:
	// Validate rejects 0 at New time rather than letting a zero step
	// silently degrade quantization in the kernel.
	ADCBits int
	// ReadNoise is the relative std-dev of analog column-sum noise.
	ReadNoise float64
	// Functional selects the fast functional-simulation mode: the MVM
	// result is computed from exact integer arithmetic (no per-cycle ADC
	// quantization or noise) while the cost model stays identical. Large
	// benchmark sweeps use it; accuracy studies keep the default
	// bit-serial mode.
	Functional bool
	// SpareCols is the number of spare physical columns held in reserve
	// beyond Cols for fault repair: when device-fault injection is active
	// (SetFaults), the post-program self-test remaps logical columns with
	// unrepairable cells onto spares. With no fault model the spares are
	// inert. Zero disables remapping.
	SpareCols int
}

// DefaultConfig returns the ISAAC-scale configuration: 128x128 arrays,
// 2-bit cells, 8-bit weights (4 slices), 8-bit inputs, 8-bit ADCs.
func DefaultConfig() Config {
	return Config{
		Rows:       128,
		Cols:       128,
		CellBits:   2,
		WeightBits: 8,
		InputBits:  8,
		ADCBits:    8,
		ReadNoise:  0.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("crossbar: dimensions must be positive, got %dx%d", c.Rows, c.Cols)
	case c.CellBits < 1 || c.CellBits > 8:
		return fmt.Errorf("crossbar: CellBits must be in [1,8], got %d", c.CellBits)
	case c.WeightBits < c.CellBits || c.WeightBits%c.CellBits != 0:
		return fmt.Errorf("crossbar: WeightBits (%d) must be a positive multiple of CellBits (%d)", c.WeightBits, c.CellBits)
	case c.WeightBits > 16:
		return fmt.Errorf("crossbar: WeightBits must be <= 16, got %d", c.WeightBits)
	case c.InputBits < 1 || c.InputBits > 16:
		return fmt.Errorf("crossbar: InputBits must be in [1,16], got %d", c.InputBits)
	case c.ADCBits < 1 || c.ADCBits > 16:
		return fmt.Errorf("crossbar: ADCBits must be in [1,16], got %d (an ADC needs at least one bit; 0 would collapse the quantization step)", c.ADCBits)
	case c.ReadNoise < 0:
		return fmt.Errorf("crossbar: ReadNoise must be non-negative, got %g", c.ReadNoise)
	case c.SpareCols < 0:
		return fmt.Errorf("crossbar: SpareCols must be non-negative, got %d", c.SpareCols)
	}
	return nil
}

// slices returns the number of physical bit-slice arrays.
func (c Config) slices() int { return c.WeightBits / c.CellBits }

// mvmScratch holds the per-MVM working set. Instances cycle through the
// crossbar's pool so steady-state MVMs allocate nothing.
type mvmScratch struct {
	// xInt is the quantized, shift-encoded input.
	xInt []int32
	// acc accumulates shift-added partial sums per column.
	acc []float64
	// active holds the concatenated active-row lists, one run per input
	// bit; activeStart[b] is the offset of bit b's run (activeStart has
	// InputBits+1 entries).
	active      []int32
	activeStart []int32
}

// Crossbar is one logical crossbar: slices() physical arrays of Rows x Cols
// cells. Programming mutates the crossbar and must not race with reads, but
// MVM on a programmed crossbar is read-only (working state lives in pooled
// scratch), so concurrent MVMs — the tiled/batched hot path — are safe.
type Crossbar struct {
	cfg       Config
	numSlices int

	// sliceT[s][c*Rows+r] holds the CellBits-wide slice s of the shifted,
	// quantized weight at (r, c) — column-major, so the per-column row
	// reduction in the MVM kernel is a contiguous scan.
	sliceT [][]uint8

	// packedT[c*Rows+r], when non-nil, packs every slice level of cell
	// (r, c) into 16-bit lanes of one word (slice s at bit 16*s). The
	// bit-serial kernel then loads all slices of a cell with a single
	// gather and reads the per-slice column sums out of the lanes — exact
	// integer arithmetic, bit-identical to the slice-at-a-time path.
	// Program leaves it nil when the lanes don't fit: more than 4 slices,
	// or cellMax*usedRows overflowing 16 bits.
	packedT []uint64

	// colSumInt[c] is the column sum of integer weights, stored at program
	// time for digital offset removal.
	colSumInt []int64

	// usedRows and usedCols are the programmed submatrix dimensions.
	usedRows, usedCols int

	// wScale restores programmed weights to their original range.
	wScale float64

	// adcStep and adcMaxSum are the ADC transfer function for the
	// programmed shape: the ADC clips column sums to adcMaxSum and
	// quantizes in steps of adcStep. Both are fixed at Program time.
	adcStep, adcMaxSum float64

	// adcLUT[v] = Round(v/adcStep)*adcStep for every integer column sum
	// v ∈ [0, adcMaxSum]. Noise-free column sums are integers bounded by
	// adcMaxSum = usedRows·cellMax, so the batch kernels replace the
	// divide-and-round ADC transfer with one table load — exact, because
	// each entry is computed with the serial kernels' own expression.
	adcLUT []float64

	// scaleTab[k] = 2^k, the shift-and-add merge factors, indexed by
	// inputBit + slice*CellBits.
	scaleTab []float64

	// writes counts cell programming operations (wear). With fault
	// injection active it counts real program pulses, including every
	// program-and-verify retry — repairs are never free.
	writes int64

	programmed bool

	// faults / faultSrc configure device-fault injection (SetFaults).
	// faultEpoch counts Program passes so transient write-failure draws
	// re-roll per pass while permanent faults stay pinned to positions.
	// faultReport is the blast-radius record of the latest Program.
	faults      faultinject.Model
	faultSrc    noise.Source
	faultEpoch  uint64
	faultReport faultinject.Report

	// scratch pools *mvmScratch so concurrent MVMs on one crossbar don't
	// contend on a shared buffer and steady-state MVMs don't allocate.
	// batchScratch does the same for the 2-D arenas of the batched kernels
	// (batch.go). Both pools size buffers against the *current* programmed
	// shape on every Get — capacity grows monotonically and lengths are
	// re-sliced per call — so a crossbar reprogrammed across different
	// shapes can never hand back an undersized scratch from an earlier,
	// smaller configuration (TestScratchReuseAcrossReshapes pins this).
	scratch      sync.Pool
	batchScratch sync.Pool
}

// New returns an unprogrammed crossbar.
func New(cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	sl := make([][]uint8, cfg.slices())
	for i := range sl {
		sl[i] = make([]uint8, n)
	}
	// Largest shift-add exponent: (InputBits-1) + (slices-1)*CellBits.
	scaleTab := make([]float64, cfg.InputBits+cfg.WeightBits)
	for i := range scaleTab {
		scaleTab[i] = float64(int64(1) << uint(i))
	}
	return &Crossbar{
		cfg:       cfg,
		numSlices: cfg.slices(),
		sliceT:    sl,
		colSumInt: make([]int64, cfg.Cols),
		scaleTab:  scaleTab,
	}, nil
}

// Config returns the crossbar configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// Programmed reports whether weights have been loaded.
func (x *Crossbar) Programmed() bool { return x.programmed }

// UsedShape returns the programmed submatrix dimensions (rows, cols).
func (x *Crossbar) UsedShape() (int, int) { return x.usedRows, x.usedCols }

// Writes returns the total cell-programming count (wear indicator).
func (x *Crossbar) Writes() int64 { return x.writes }

// WeightScale returns the scale factor that maps stored normalized weights
// back to the caller's range.
func (x *Crossbar) WeightScale() float64 { return x.wScale }

// SetFaults installs a device-fault model, effective from the next Program
// pass. src keys every fault decision positionally (see internal/faultinject);
// tiles derive one child per block so sweeps stay bit-identical at any
// worker-pool width. Passing a zero Model disables injection. Installing an
// enabled model requires a valid source.
func (x *Crossbar) SetFaults(m faultinject.Model, src noise.Source) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Enabled() && !src.Valid() {
		return fmt.Errorf("crossbar: enabled fault model requires a fault source")
	}
	x.faults = m
	x.faultSrc = src
	return nil
}

// FaultsEnabled reports whether device-fault injection is active.
func (x *Crossbar) FaultsEnabled() bool { return x.faults.Enabled() }

// FaultReport returns the fault-handling record of the most recent Program
// pass: stuck/drifting cells encountered, retry pulses charged, columns
// remapped to spares, and columns lost past spare exhaustion. Zero when
// fault injection is disabled or before Program.
func (x *Crossbar) FaultReport() faultinject.Report { return x.faultReport }

// FaultEpoch returns how many Program passes have run with fault injection
// active (the endurance clock the drift model compounds against).
func (x *Crossbar) FaultEpoch() uint64 { return x.faultEpoch }

// Program loads the weight matrix w (w[r][c], at most Rows x Cols). Weights
// may be any finite values; the crossbar normalizes by max |w|. Shape and
// finiteness are validated before any crossbar state changes. It returns
// the programming cost: rows are written in parallel across columns but
// serially row by row and slice stacks in parallel, so latency is
// usedRows x write-latency, and energy covers every programmed cell.
//
// Program is the row-major adapter: w is gathered into one column-major
// block and written by the same quantizer Tile.ProgramColumns drives.
func (x *Crossbar) Program(w [][]float64) (energy.Cost, error) {
	return x.ProgramCtx(obs.Ctx{}, w)
}

// ProgramCtx is Program under a trace span: the write (including the full
// program-and-verify pulse train on the fault path) is recorded as an
// "xbar.program" child of pc, annotated with the pulse/verify/remap blast
// radius. A zero Ctx reduces to Program plus two branches.
func (x *Crossbar) ProgramCtx(pc obs.Ctx, w [][]float64) (energy.Cost, error) {
	a, err := rowMajor(w)
	if err != nil {
		return energy.Zero, err
	}
	return x.programBlockCtx(pc, a.block(0, a.rows, 0, a.cols))
}

// programBlockCtx programs block b under an "xbar.program" span.
func (x *Crossbar) programBlockCtx(pc obs.Ctx, b block) (energy.Cost, error) {
	sp := pc.Child("xbar.program")
	cost, err := x.program(b)
	if sp.Active() {
		sp.Annotate("rows", float64(x.usedRows))
		sp.Annotate("cols", float64(x.usedCols))
		if x.faults.Enabled() {
			rep := x.faultReport
			sp.Annotate("retry_pulses", float64(rep.RetryPulses))
			sp.Annotate("remapped_cols", float64(rep.RemappedCols))
			sp.Annotate("lost_cols", float64(rep.LostCols))
		}
	}
	sp.End(cost)
	return cost, err
}

// program writes block b (its source's shape was validated by the
// caller). The fault-free path is a single pass over the block: each
// column quantizes (quantize.go) into a column of levels that is written
// straight into its slice arrays and then into its packed lanes while the
// column is still cache-hot. Cells outside the programmed region are never
// cleared — every kernel reads only the used rows of the used columns, so
// leftovers from an earlier, larger shape are unreachable.
func (x *Crossbar) program(b block) (energy.Cost, error) {
	rows, cols := b.rows(), len(b.cols)
	if rows <= 0 || rows > x.cfg.Rows {
		return energy.Zero, fmt.Errorf("crossbar: weight rows %d outside [1,%d]", rows, x.cfg.Rows)
	}
	if cols == 0 || cols > x.cfg.Cols {
		return energy.Zero, fmt.Errorf("crossbar: weight cols %d outside [1,%d]", cols, x.cfg.Cols)
	}
	// Fail fast: the NaN/Inf scan completes before quantization starts or
	// any stored state is touched.
	wScale, err := b.scale()
	if err != nil {
		return energy.Zero, err
	}
	x.usedRows, x.usedCols = rows, cols
	x.wScale = wScale

	// Slice levels pack into 16-bit lanes when they fit (≤4 slices and no
	// possible lane overflow): the bit-serial kernel then gathers each
	// active cell once instead of once per slice.
	cellMaxInt := int(1)<<x.cfg.CellBits - 1
	if x.numSlices <= 4 && cellMaxInt*rows <= 0xFFFF {
		if x.packedT == nil {
			x.packedT = make([]uint64, x.cfg.Rows*x.cfg.Cols)
		}
	} else {
		x.packedT = nil
	}

	wMax := x.cfg.wMax()
	cellBits := uint(x.cfg.CellBits)
	cellMask := uint8(1<<x.cfg.CellBits - 1)
	faulty := x.faults.Enabled()
	var pulses, verifies int64
	if !faulty {
		levels := make([]int32, rows)
		for c, col := range b.cols {
			x.colSumInt[c] = quantizeColumn(levels, col, wScale, wMax)
			base := c * x.cfg.Rows
			for s, sl := range x.sliceT {
				dst := sl[base : base+rows]
				dst = dst[:len(levels)]            // drops the bounds check
				shift := (uint(s) * cellBits) & 31 // < 32: no shift-range check
				for r, q := range levels {
					dst[r] = uint8(q>>shift) & cellMask
				}
			}
			if x.packedT != nil {
				x.packColumn(c)
			}
		}
	} else {
		// Device-fault path: per-cell program-and-verify with escalating
		// retry pulses, then the built-in self-test scan and spare-column
		// remapping. wIntT holds the desired quantized level per cell,
		// column-major — the reference pattern program-and-verify checks
		// the stored levels against. programAndVerify fills sliceT with
		// the *stored* (possibly faulty) levels; colSumInt keeps the
		// intended sums — the digital backend removes the offset it
		// programmed, and any analog deviation from stuck or drifting
		// cells shows up as output error, exactly like hardware.
		wIntT := make([]int32, cols*rows)
		for c, col := range b.cols {
			x.colSumInt[c] = quantizeColumn(wIntT[c*rows:(c+1)*rows], col, wScale, wMax)
		}
		pulses, verifies = x.programAndVerify(wIntT, cellMask)
		if x.packedT != nil {
			for c := 0; c < cols; c++ {
				x.packColumn(c)
			}
		}
	}

	x.adcStep, x.adcMaxSum, x.adcLUT = x.cfg.adcTransfer(rows, x.adcLUT)
	x.programmed = true

	cells := int64(rows) * int64(cols) * int64(x.numSlices)
	if faulty {
		// Program-and-verify cost: every pulse is a real memristor write
		// and every verify a real read-back — retries and spare-column
		// reprogramming are charged, never free. Latency: rows write in
		// parallel across columns but serially row by row, each row wave
		// now followed by its verify read; every retry pulse and every
		// spare-column pulse beyond the base grid serializes on top.
		x.faultEpoch++
		x.writes += pulses
		extraPulses := pulses - cells
		extraVerifies := verifies - cells
		return energy.Cost{
			LatencyPS: int64(rows)*(energy.CrossbarWriteLatencyPS+energy.CrossbarReadLatencyPS) +
				extraPulses*energy.CrossbarWriteLatencyPS +
				extraVerifies*energy.CrossbarReadLatencyPS,
			EnergyPJ: float64(pulses)*energy.CrossbarWriteEnergyPJ +
				float64(verifies)*energy.CrossbarCellReadEnergyPJ,
		}, nil
	}
	x.faultReport = faultinject.Report{}
	x.writes += cells
	return energy.Cost{
		LatencyPS: int64(rows) * energy.CrossbarWriteLatencyPS,
		EnergyPJ:  float64(cells) * energy.CrossbarWriteEnergyPJ,
	}, nil
}

// packColumn packs the stored slice levels of used column c into
// packedT, slice s in the 16-bit lane at bit 16*s. It is the one packing
// routine: the fault-free path packs each column right after writing its
// slices, the fault path after program-and-verify, so the lanes always
// hold what the cells really store.
func (x *Crossbar) packColumn(c int) {
	base := c * x.cfg.Rows
	dst := x.packedT[base : base+x.usedRows]
	for i := range dst {
		dst[i] = 0
	}
	for s, sl := range x.sliceT {
		shift := uint(16*s) & 63
		src := sl[base : base+len(dst)]
		dst := dst[:len(src)] // drops the bounds check
		for i, lv := range src {
			dst[i] |= uint64(lv) << shift
		}
	}
}

// maxPulseTrains bounds the program-and-verify loop: one initial pulse,
// then escalating retry trains of 2, 4, 8, 16, and 32 pulses (63 pulses
// total) before the controller gives up on a cell. Escalation mirrors real
// RRAM program-and-verify controllers, which raise pulse count/amplitude
// on each failed verify.
const maxPulseTrains = 6

// programAndVerify simulates the honest write loop for every cell of the
// desired pattern wIntT (column-major, usedRows stride), then runs the
// built-in self-test and spare-column remapping:
//
//   - Each physical cell is erased and programmed with an escalating
//     pulse train; after each train a verify read compares the stored
//     level against the known desired level. Transient pulse failures
//     (faultinject.PulseFails) retry; stuck cells never verify.
//   - The BIST scan is exactly that per-cell verify against the known
//     written pattern (equivalent to marching test vectors over the
//     column): a column with any unverified cell is bad.
//   - Bad logical columns remap to spare physical columns (Config.
//     SpareCols), which are themselves programmed-and-verified — a bad
//     spare is consumed and skipped. When spares run out the column is
//     lost: its corrupted stored levels stay visible to MVM and the
//     report says so (degradation is never silent).
//
// Stored levels land in sliceT at the *logical* column slot (the remap is
// resolved at program time, so the MVM kernels run unmodified), and
// endurance drift attenuates verified levels after the fact — drift is a
// retention effect the write verify cannot see. Returns total pulses and
// verify reads for the cost ledger; the blast-radius record lands in
// x.faultReport.
// cellPos packs a physical cell coordinate (bit-slice, physical column,
// row) into the fault-stream index. The packing is bit-field, not
// stride-based, so a cell's fault draws depend only on its coordinate —
// never on the array's column count or spare budget. That makes sweeps
// over Config.SpareCols apples-to-apples: growing the budget adds spare
// columns with their own faults but cannot move the faults already pinned
// to the primary grid. 20-bit fields bound rows and physical columns at
// 2^20, far beyond any simulated array.
func cellPos(s, phys, r int) uint64 {
	return uint64(s)<<40 | uint64(phys)<<20 | uint64(r)
}

func (x *Crossbar) programAndVerify(wIntT []int32, cellMask uint8) (pulses, verifies int64) {
	rows := x.usedRows
	physCols := x.cfg.Cols + x.cfg.SpareCols
	rep := faultinject.Report{}
	// stored holds one candidate physical column's levels, slice-major
	// (s*rows + r), before being committed to the logical slot.
	stored := make([]uint8, x.numSlices*rows)

	// programColumn simulates programming the desired logical pattern
	// into physical column phys, returning whether every cell verified.
	programColumn := func(c, phys int) bool {
		ok := true
		for s := 0; s < x.numSlices; s++ {
			shift := uint(s * x.cfg.CellBits)
			for r := 0; r < rows; r++ {
				want := uint8(wIntT[c*rows+r]>>shift) & cellMask
				pos := cellPos(s, phys, r)
				fault := x.faults.Cell(x.faultSrc, pos)
				var level uint8
				cellOK := false
				switch fault {
				case faultinject.StuckLow:
					rep.StuckCells++
					level = 0
					cellOK = want == 0
				case faultinject.StuckHigh:
					rep.StuckCells++
					level = cellMask
					cellOK = want == cellMask
				default:
					if fault == faultinject.Drifter {
						rep.DriftCells++
					}
					// The cell starts from its erased (level-0) state; a
					// train settles it iff any pulse in the train lands.
					level = 0
					cellOK = want == 0
				}
				var pulse uint64
				train := 1
				for t := 0; t < maxPulseTrains; t++ {
					for p := 0; p < train; p++ {
						if fault == faultinject.None || fault == faultinject.Drifter {
							if !x.faults.PulseFails(x.faultSrc, pos, x.faultEpoch, pulse) {
								level = want
							}
						}
						pulse++
					}
					verifies++
					if level == want {
						cellOK = true
					}
					if cellOK {
						break
					}
					train *= 2
				}
				pulses += int64(pulse)
				rep.RetryPulses += int64(pulse) - 1
				if !cellOK {
					ok = false
				}
				// Endurance drift: verified analog levels relax after the
				// write settles, compounding per program epoch. The verify
				// loop cannot see it — only a later health scan can.
				if fault == faultinject.Drifter && cellOK && level > 0 {
					f := x.faults.DriftFactor(x.faultSrc, pos, x.faultEpoch+1)
					level = uint8(math.Round(float64(level) * f))
				}
				stored[s*rows+r] = level
			}
		}
		return ok
	}

	commit := func(c int) {
		for s := 0; s < x.numSlices; s++ {
			copy(x.sliceT[s][c*x.cfg.Rows:c*x.cfg.Rows+rows], stored[s*rows:(s+1)*rows])
		}
	}

	spareNext := x.cfg.Cols // next unconsumed spare physical column
	for c := 0; c < x.usedCols; c++ {
		phys := c
		for {
			ok := programColumn(c, phys)
			if ok {
				if phys != c {
					rep.RemappedCols++
				}
				commit(c)
				break
			}
			if spareNext >= physCols {
				// Spare budget exhausted: the column is lost. Commit the
				// corrupted levels — the degradation is visible in every
				// MVM — and report it.
				if phys != c {
					rep.BadSpares++
				}
				rep.LostCols++
				commit(c)
				break
			}
			if phys != c {
				rep.BadSpares++
			}
			phys = spareNext
			spareNext++
			rep.SparesUsed++
		}
	}
	x.faultReport = rep
	return pulses, verifies
}

// MVM computes y = W · input over the programmed submatrix through the full
// analog pipeline, allocating the result vector. input must have usedRows
// elements; the result has usedCols. ns supplies counter-based analog read
// noise and may be NoNoise when ReadNoise is zero; the draw applied to
// (input bit b, slice s, column c) is ns.Norm((b*slices+s)*usedCols + c),
// so results are independent of evaluation order.
func (x *Crossbar) MVM(input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	if !x.programmed {
		return nil, energy.Zero, fmt.Errorf("crossbar: MVM before Program")
	}
	out := make([]float64, x.usedCols)
	cost, err := x.MVMInto(out, input, ns)
	if err != nil {
		return nil, energy.Zero, err
	}
	return out, cost, nil
}

// MVMIntoCtx is MVMInto under a trace span: the analog read is recorded
// as an "xbar.mvm" child of pc carrying the MVM's simulated cost. With a
// zero Ctx (tracing off) it is the raw kernel plus one branch — zero
// allocations, preserving the hot-path contract (see docs/OBSERVABILITY.md
// and BenchmarkCrossbarMVMTracingOff).
func (x *Crossbar) MVMIntoCtx(pc obs.Ctx, dst, input []float64, ns noise.Source) (energy.Cost, error) {
	if !pc.Active() {
		return x.MVMInto(dst, input, ns)
	}
	sp := pc.Child("xbar.mvm")
	cost, err := x.MVMInto(dst, input, ns)
	sp.End(cost)
	return cost, err
}

// MVMInto is MVM writing the result into dst (len usedCols). It is the
// zero-allocation kernel: all working state comes from the crossbar's
// scratch pool, so steady-state calls do not allocate. Safe for concurrent
// use on a programmed crossbar.
func (x *Crossbar) MVMInto(dst, input []float64, ns noise.Source) (energy.Cost, error) {
	// Fail fast: every shape and value check completes before quantization
	// or scratch acquisition.
	if !x.programmed {
		return energy.Zero, fmt.Errorf("crossbar: MVM before Program")
	}
	if len(input) != x.usedRows {
		return energy.Zero, fmt.Errorf("crossbar: input length %d != programmed rows %d", len(input), x.usedRows)
	}
	if len(dst) != x.usedCols {
		return energy.Zero, fmt.Errorf("crossbar: dst length %d != programmed cols %d", len(dst), x.usedCols)
	}
	if x.cfg.ReadNoise > 0 && !ns.Valid() {
		return energy.Zero, fmt.Errorf("crossbar: ReadNoise %g requires a noise source", x.cfg.ReadNoise)
	}
	xScale := 0.0
	for i, v := range input {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return energy.Zero, fmt.Errorf("crossbar: non-finite input at index %d", i)
		}
		if a := math.Abs(v); a > xScale {
			xScale = a
		}
	}
	if xScale == 0 {
		xScale = 1
	}

	s := x.getScratch()
	defer x.scratch.Put(s)

	// Quantize and shift-encode the input.
	xMax := int32(1)<<x.cfg.InputBits - 1
	var xSumInt int64
	for i, v := range input {
		x01 := (v/xScale + 1) / 2
		xi := int32(math.Round(x01 * float64(xMax)))
		s.xInt[i] = xi
		xSumInt += int64(xi)
	}

	if x.cfg.Functional {
		x.functionalKernel(s)
	} else {
		x.bitSerialKernel(s, ns)
	}

	// Remove the shift-encoding offsets and restore the real-valued scale:
	// y = wScale*xScale * (4*acc/(Wmax*Xmax) - 2*colSum/Wmax - 2*xSum/Xmax + n).
	wMax := float64(int(1)<<x.cfg.WeightBits - 1)
	fxMax := float64(xMax)
	n := float64(x.usedRows)
	for c := range dst {
		t := 4*s.acc[c]/(wMax*fxMax) -
			2*float64(x.colSumInt[c])/wMax -
			2*float64(xSumInt)/fxMax + n
		dst[c] = x.wScale * xScale * t
	}
	return x.mvmCost(), nil
}

// getScratch returns a scratch sized for the programmed shape, with acc
// zeroed. Buffers grow once and are reused via the pool thereafter.
func (x *Crossbar) getScratch() *mvmScratch {
	s, _ := x.scratch.Get().(*mvmScratch)
	if s == nil {
		s = &mvmScratch{}
	}
	if cap(s.xInt) < x.usedRows {
		s.xInt = make([]int32, x.usedRows)
	}
	s.xInt = s.xInt[:x.usedRows]
	if cap(s.acc) < x.usedCols {
		s.acc = make([]float64, x.usedCols)
	}
	s.acc = s.acc[:x.usedCols]
	for i := range s.acc {
		s.acc[i] = 0
	}
	if cap(s.activeStart) < x.cfg.InputBits+1 {
		s.activeStart = make([]int32, x.cfg.InputBits+1)
	}
	s.activeStart = s.activeStart[:x.cfg.InputBits+1]
	if cap(s.active) < x.cfg.InputBits*x.usedRows {
		s.active = make([]int32, 0, x.cfg.InputBits*x.usedRows)
	}
	s.active = s.active[:0]
	return s
}

// functionalKernel computes exact integer accumulation: equivalent to the
// bit-serial loop with ideal converters. The column-major layout makes
// every slice's row reduction a contiguous scan.
func (x *Crossbar) functionalKernel(s *mvmScratch) {
	rows := x.cfg.Rows
	for c := 0; c < x.usedCols; c++ {
		base := c * rows
		var sum int64
		for si := x.numSlices - 1; si >= 0; si-- {
			col := x.sliceT[si][base : base+x.usedRows]
			var part int64
			for r, lv := range col {
				part += int64(lv) * int64(s.xInt[r])
			}
			sum = sum<<uint(x.cfg.CellBits) + part
		}
		s.acc[c] = float64(sum)
	}
}

// bitSerialKernel walks the honest analog pipeline: one array cycle per
// input bit, one ADC conversion per (cycle, slice, column). Per-bit
// active-row lists skip rows whose input bit is clear, and the column-major
// layout keeps each reduction contiguous.
func (x *Crossbar) bitSerialKernel(s *mvmScratch, ns noise.Source) {
	// Active-row index lists, built once per MVM.
	for b := 0; b < x.cfg.InputBits; b++ {
		s.activeStart[b] = int32(len(s.active))
		mask := int32(1) << uint(b)
		for r := 0; r < x.usedRows; r++ {
			if s.xInt[r]&mask != 0 {
				s.active = append(s.active, int32(r))
			}
		}
	}
	s.activeStart[x.cfg.InputBits] = int32(len(s.active))

	if x.packedT != nil {
		x.bitSerialPacked(s, ns)
		return
	}

	rows := x.cfg.Rows
	sigma := x.cfg.ReadNoise
	for b := 0; b < x.cfg.InputBits; b++ {
		rowsB := s.active[s.activeStart[b]:s.activeStart[b+1]]
		for si := 0; si < x.numSlices; si++ {
			sl := x.sliceT[si]
			scale := x.scaleTab[b+si*x.cfg.CellBits]
			// Noise draws are position-keyed: (b, si, c) -> one counter.
			nsBase := (uint64(b)*uint64(x.numSlices) + uint64(si)) * uint64(x.usedCols)
			for c := 0; c < x.usedCols; c++ {
				col := sl[c*rows : c*rows+x.usedRows]
				var sum int64
				for _, r := range rowsB {
					sum += int64(col[r])
				}
				colSum := float64(sum)
				if sigma > 0 {
					// Multiplicative cycle-to-cycle read noise on the
					// analog partial, matching the device model: each
					// read deviates by a relative Gaussian factor.
					colSum *= 1 + ns.Norm(nsBase+uint64(c))*sigma
					if colSum < 0 {
						colSum = 0
					}
				}
				// ADC: clip then quantize.
				if colSum > x.adcMaxSum {
					colSum = x.adcMaxSum
				}
				s.acc[c] += math.Round(colSum/x.adcStep) * x.adcStep * scale
			}
		}
	}
}

// bitSerialPacked is the lane-packed variant of the bit-serial kernel,
// taken whenever Program could build packedT. One gather per active cell
// accumulates all slice sums at once in 16-bit lanes (exact — Program
// guarantees no lane can overflow); the ADC transfer, noise draw indexing,
// and per-column (bit, slice) accumulation order are identical to the
// slice-at-a-time path, so the two kernels are bit-identical.
func (x *Crossbar) bitSerialPacked(s *mvmScratch, ns noise.Source) {
	rows := x.cfg.Rows
	sigma := x.cfg.ReadNoise
	for b := 0; b < x.cfg.InputBits; b++ {
		rowsB := s.active[s.activeStart[b]:s.activeStart[b+1]]
		nsBit := uint64(b) * uint64(x.numSlices) * uint64(x.usedCols)
		for c := 0; c < x.usedCols; c++ {
			col := x.packedT[c*rows : c*rows+x.usedRows]
			var packed uint64
			for _, r := range rowsB {
				packed += col[r]
			}
			for si := 0; si < x.numSlices; si++ {
				colSum := float64((packed >> uint(16*si)) & 0xFFFF)
				if sigma > 0 {
					// Same position-keyed draw as the generic path:
					// index (b*slices+si)*usedCols + c.
					colSum *= 1 + ns.Norm(nsBit+uint64(si)*uint64(x.usedCols)+uint64(c))*sigma
					if colSum < 0 {
						colSum = 0
					}
				}
				// ADC: clip then quantize.
				if colSum > x.adcMaxSum {
					colSum = x.adcMaxSum
				}
				s.acc[c] += math.Round(colSum/x.adcStep) * x.adcStep * x.scaleTab[b+si*x.cfg.CellBits]
			}
		}
	}
}

// mvmCost returns the cost of one full MVM: InputBits array cycles (slices
// fire in parallel, each with its own ADC), plus digital merge and buffer
// traffic.
func (x *Crossbar) mvmCost() energy.Cost {
	cycles := int64(x.cfg.InputBits)
	slices := float64(x.numSlices)
	rows := float64(x.usedRows)
	cols := float64(x.usedCols)

	// ADC energy scales exponentially with resolution relative to the 8-bit
	// reference point.
	adcEnergy := energy.ADCConversionEnergyPJ * math.Pow(2, float64(x.cfg.ADCBits-8))

	perCycle := rows*cols*slices*energy.CrossbarCellReadEnergyPJ +
		rows*slices*energy.DACDriveEnergyPJ +
		cols*slices*(adcEnergy+energy.SAHoldEnergyPJ) +
		cols*slices*energy.ShiftAddEnergyPJ

	// Input and output transit the tile eDRAM buffer once per MVM.
	bufBytes := rows + 2*cols // 1B/input element, 2B/output element
	bufEnergy := bufBytes * energy.EDRAMAccessEnergyPJPerByte

	return energy.Cost{
		LatencyPS: cycles*energy.CrossbarReadLatencyPS + 2*energy.EDRAMAccessLatencyPS,
		EnergyPJ:  float64(cycles)*perCycle + bufEnergy,
	}
}

// IdealMVM computes the product with no analog effects — the reference the
// tests compare the analog pipeline against.
func (x *Crossbar) IdealMVM(w [][]float64, input []float64) ([]float64, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("crossbar: empty weights")
	}
	if len(input) != len(w) {
		return nil, fmt.Errorf("crossbar: input length %d != rows %d", len(input), len(w))
	}
	cols := len(w[0])
	out := make([]float64, cols)
	for r, row := range w {
		if len(row) != cols {
			return nil, fmt.Errorf("crossbar: ragged matrix at row %d", r)
		}
		for c, v := range row {
			out[c] += v * input[r]
		}
	}
	return out, nil
}
