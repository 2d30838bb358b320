package vonneumann

import (
	"fmt"
	"math"
	"sync"

	"cimrev/internal/crossbar"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

// Backend is the executing digital twin of a deterministic DPE engine: a
// Von Neumann backend that reproduces the crossbar inference path
// bit-exactly in integer arithmetic, priced by the package's roofline and
// cache models instead of the analog cost constants.
//
// Exactness argument (docs/HYBRID.md): the deterministic crossbar pipeline
// is, end to end, a pure function of quantized integers. Program quantizes
// each tile block's weights to WeightBits with a per-block scale; MVMInto
// quantizes the block's input segment to InputBits; the functional kernel
// reduces them with exact int64 arithmetic, and the bit-serial kernel (at
// ReadNoise 0) applies the tabulated adcLUT transfer to exact integer
// column sums. The Backend replays those same integer computations — a
// blocked int GEMM for functional configs, the LUT transfer for bit-serial
// ones — followed by the identical float64 offset-removal expression and
// the identical fixed-order block merge, so every intermediate float64 is
// the same value in the same order and the outputs compare with ==, not a
// tolerance. The crossbar's tile decomposition doubles as the cache
// blocking: one quantized 128x128 int32 panel is 64 KiB, L2-resident on
// the modeled machine.
//
// Costs are a different story on purpose: the Backend prices each stage as
// a roofline GEMM kernel (weights stream from memory unless the whole
// quantized network fits in the LLC), so the simulated latency and energy
// are honest Von Neumann numbers. Bit-serial configs pay the full
// replication factor — reproducing the per-(input bit, slice) ADC transfer
// digitally is a slices x InputBits/2 more expensive integer kernel, and
// the model says so rather than pretending the cheap functional GEMM
// suffices.
//
// A Backend is safe for concurrent InferBatch calls; Reload serializes
// against them with a RW lock. Noisy or faulty configurations have no twin
// — NewBackend rejects ReadNoise > 0, and callers with fault injection
// enabled must not build one (the dispatcher pins that traffic to CIM).
type Backend struct {
	mach Machine
	hcfg HierarchyConfig
	xcfg crossbar.Config

	mu     sync.RWMutex
	net    *nn.Network
	stages []twinStage

	// scaleTab[i] = 2^i, the bit-serial shift-and-add factors — the same
	// table the crossbar kernel uses.
	scaleTab []float64
	// resident is true when every stage's quantized weight panel fits in
	// the LLC together, making steady-state weight traffic free.
	resident bool
}

// twinStage mirrors one dpe stage: for dense and conv layers, the layer's
// weights quantized by the quantizer crossbar.Tile programming itself runs
// (crossbar.QuantizeColumns/Rows) — the same block grid, each block with
// its own scale, column-major integer weights (the GEMM panel; slice
// levels for the bit-serial path come out of them by shift and mask,
// exactly as Program distributes them), stored column sums, and ADC
// transfer table. Digital stages keep the layer itself.
type twinStage struct {
	layer nn.Layer
	dense *nn.Dense
	conv  *nn.Conv2D
	panel *crossbar.Quantized
}

// NewBackend builds the executing twin for a deterministic crossbar config
// and network, priced on mach with the hcfg cache geometry. It rejects
// noisy configs (there is no digital twin for Gaussian analog noise) and
// invalid cache geometries, and fails on layers the DPE cannot map.
func NewBackend(mach Machine, hcfg HierarchyConfig, xcfg crossbar.Config, net *nn.Network) (*Backend, error) {
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	if err := hcfg.Validate(); err != nil {
		return nil, err
	}
	if err := xcfg.Validate(); err != nil {
		return nil, err
	}
	if xcfg.ReadNoise > 0 {
		return nil, fmt.Errorf("vonneumann: no digital twin for ReadNoise %g (noisy traffic is pinned to CIM)", xcfg.ReadNoise)
	}
	b := &Backend{mach: mach, hcfg: hcfg, xcfg: xcfg}
	b.scaleTab = make([]float64, xcfg.InputBits+xcfg.WeightBits)
	for i := range b.scaleTab {
		b.scaleTab[i] = float64(int64(1) << uint(i))
	}
	if err := b.Reload(net); err != nil {
		return nil, err
	}
	return b, nil
}

// Config returns the crossbar configuration the twin replicates.
func (b *Backend) Config() crossbar.Config { return b.xcfg }

// Machine returns the pricing machine model.
func (b *Backend) Machine() Machine { return b.mach }

// Network returns the currently loaded network.
func (b *Backend) Network() *nn.Network {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.net
}

// Reload re-quantizes the twin from net — the digital analogue of a
// shadow-pair reprogram. After the first load the topology must stay
// identical, mirroring dpe.Engine.Reprogram. It blocks until in-flight
// InferBatch calls drain.
func (b *Backend) Reload(net *nn.Network) error {
	if net == nil || len(net.Layers) == 0 {
		return fmt.Errorf("vonneumann: empty network")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.net != nil {
		if len(net.Layers) != len(b.stages) {
			return fmt.Errorf("vonneumann: Reload requires identical topology")
		}
		for i, l := range net.Layers {
			if l.InSize() != b.stages[i].layer.InSize() || l.OutSize() != b.stages[i].layer.OutSize() {
				return fmt.Errorf("vonneumann: Reload layer %d shape mismatch", i)
			}
		}
	}
	// Every stage quantizes before any twin state changes, so a network
	// the crossbars would reject (a NaN or Inf weight) leaves the twin
	// serving its previous load.
	stages := make([]twinStage, len(net.Layers))
	for i, layer := range net.Layers {
		s := twinStage{layer: layer}
		var err error
		switch l := layer.(type) {
		case *nn.Dense:
			s.dense = l
			// nn.Dense.W is [out][in]: its rows are the crossbar's columns.
			s.panel, err = crossbar.QuantizeColumns(b.xcfg, l.W)
		case *nn.Conv2D:
			s.conv = l
			s.panel, err = crossbar.QuantizeRows(b.xcfg, l.Im2ColMatrix())
		case *nn.ActivationLayer, *nn.MaxPool2D:
			// Digital stages run the layer directly.
		default:
			return fmt.Errorf("vonneumann: unsupported layer %d (%s)", i, layer.Name())
		}
		if err != nil {
			return fmt.Errorf("vonneumann: layer %d (%s): %w", i, layer.Name(), err)
		}
		stages[i] = s
	}
	b.net = net
	b.stages = stages
	b.resident = b.weightBytes() <= float64(b.hcfg.LLCSize)
	return nil
}

// weightBytes is the total quantized panel footprint (int32 elements).
func (b *Backend) weightBytes() float64 {
	var total float64
	for _, s := range b.stages {
		if s.panel != nil {
			total += float64(s.panel.Rows) * float64(s.panel.Cols) * 4
		}
	}
	return total
}

// segQuant is one block-row's quantized input segment: every block in the
// row shares it, exactly as every crossbar in a tile row receives the same
// input slice.
type segQuant struct {
	xScale  float64
	xInt    []int32
	xSumInt int64
	// active[b] lists the segment rows whose input bit b is set — the
	// bit-serial path's active-row lists.
	active [][]int32
}

// panelMVM replays crossbar.Tile MVM: per-block MVMs merged in fixed block
// order with digital adds.
func (b *Backend) panelMVM(p *crossbar.Quantized, input []float64) ([]float64, error) {
	if len(input) != p.Rows {
		return nil, fmt.Errorf("vonneumann: input length %d != rows %d", len(input), p.Rows)
	}
	for i, v := range input {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("vonneumann: non-finite input at index %d", i)
		}
	}
	xMax := int32(1)<<b.xcfg.InputBits - 1
	segs := make([]segQuant, p.BRows)
	for br := range segs {
		r0, r1 := br*b.xcfg.Rows, minInt((br+1)*b.xcfg.Rows, p.Rows)
		seg := input[r0:r1]
		q := segQuant{xInt: make([]int32, len(seg))}
		for _, v := range seg {
			if a := math.Abs(v); a > q.xScale {
				q.xScale = a
			}
		}
		if q.xScale == 0 {
			q.xScale = 1
		}
		for i, v := range seg {
			x01 := (v/q.xScale + 1) / 2
			xi := int32(math.Round(x01 * float64(xMax)))
			q.xInt[i] = xi
			q.xSumInt += int64(xi)
		}
		if !b.xcfg.Functional {
			q.active = make([][]int32, b.xcfg.InputBits)
			for bit := range q.active {
				mask := int32(1) << uint(bit)
				for r, xi := range q.xInt {
					if xi&mask != 0 {
						q.active[bit] = append(q.active[bit], int32(r))
					}
				}
			}
		}
		segs[br] = q
	}

	out := make([]float64, p.Cols)
	stripe := make([]float64, b.xcfg.Cols)
	for bi := range p.Blocks {
		br, bc := bi/p.BCols, bi%p.BCols
		blk := &p.Blocks[bi]
		dst := stripe[:blk.Cols]
		b.blockMVM(blk, &segs[br], dst)
		c0 := bc * b.xcfg.Cols
		for i, v := range dst {
			out[c0+i] += v
		}
	}
	return out, nil
}

// blockMVM replays one crossbar's deterministic MVMInto: the exact integer
// kernel, then the identical offset-removal expression.
func (b *Backend) blockMVM(blk *crossbar.QuantizedBlock, q *segQuant, dst []float64) {
	if b.xcfg.Functional {
		// Functional config: the analog pipeline reduces to an exact
		// integer GEMV on the quantized panel — the blocked int GEMM this
		// backend exists for. The int64 accumulation equals the crossbar's
		// slice-by-slice shift-and-add identically (both are exact).
		for c := 0; c < blk.Cols; c++ {
			col := blk.WIntT[c*blk.Rows : (c+1)*blk.Rows]
			var sum int64
			for r, wv := range col {
				sum += int64(wv) * int64(q.xInt[r])
			}
			dst[c] = float64(sum)
		}
	} else {
		// Bit-serial config at ReadNoise 0: per (input bit, slice, column)
		// the integer column sum over active rows goes through the adcLUT
		// transfer and shift-and-add scale, accumulated per column in the
		// crossbar kernel's (bit asc, slice asc) float64 order.
		numSlices := b.xcfg.WeightBits / b.xcfg.CellBits
		cellMask := int32(1)<<b.xcfg.CellBits - 1
		sums := make([]int64, numSlices)
		for c := 0; c < blk.Cols; c++ {
			col := blk.WIntT[c*blk.Rows : (c+1)*blk.Rows]
			acc := 0.0
			for bit := 0; bit < b.xcfg.InputBits; bit++ {
				for si := range sums {
					sums[si] = 0
				}
				for _, r := range q.active[bit] {
					wv := col[r]
					for si := 0; si < numSlices; si++ {
						sums[si] += int64((wv >> uint(si*b.xcfg.CellBits)) & cellMask)
					}
				}
				for si := 0; si < numSlices; si++ {
					acc += blk.ADCLUT[sums[si]] * b.scaleTab[bit+si*b.xcfg.CellBits]
				}
			}
			dst[c] = acc
		}
	}
	// Offset removal — the verbatim crossbar expression:
	// y = wScale*xScale * (4*acc/(Wmax*Xmax) - 2*colSum/Wmax - 2*xSum/Xmax + n).
	wMax := float64(int(1)<<b.xcfg.WeightBits - 1)
	fxMax := float64(int32(1)<<b.xcfg.InputBits - 1)
	n := float64(blk.Rows)
	for c := range dst {
		t := 4*dst[c]/(wMax*fxMax) -
			2*float64(blk.ColSumInt[c])/wMax -
			2*float64(q.xSumInt)/fxMax + n
		dst[c] = blk.WScale * q.xScale * t
	}
}

// InferBatch runs the batch through the digital twin, returning outputs
// bit-identical to dpe.Engine.InferBatch on the same (config, network)
// and the roofline-priced Von Neumann cost of the batch.
func (b *Backend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return b.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch under a trace span ("vn.infer_batch",
// annotated with the batch size).
func (b *Backend) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(inputs) == 0 {
		return nil, energy.Zero, fmt.Errorf("vonneumann: empty batch")
	}
	for i, in := range inputs {
		if len(in) != b.net.InSize() {
			return nil, energy.Zero, fmt.Errorf("vonneumann: input %d length %d != %d", i, len(in), b.net.InSize())
		}
	}
	sp := pc.Child("vn.infer_batch")
	outs := make([][]float64, len(inputs))
	for i, in := range inputs {
		out, err := b.inferOne(in)
		if err != nil {
			sp.End(energy.Zero)
			return nil, energy.Zero, err
		}
		outs[i] = out
	}
	cost := b.predictLocked(len(inputs))
	if sp.Active() {
		sp.Annotate("batch", float64(len(inputs)))
	}
	sp.End(cost)
	return outs, cost, nil
}

// inferOne advances one item through the stage chain, mirroring
// dpe.Engine.runStage for each stage kind.
func (b *Backend) inferOne(in []float64) ([]float64, error) {
	v := in
	for i := range b.stages {
		s := &b.stages[i]
		switch {
		case s.dense != nil:
			out, err := b.panelMVM(s.panel, v)
			if err != nil {
				return nil, err
			}
			for o := range out {
				out[o] += s.dense.B[o]
			}
			v = out
		case s.conv != nil:
			l := s.conv
			oh, ow := l.OutH(), l.OutW()
			out := make([]float64, oh*ow*l.F)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					patch, err := l.Patch(v, oy, ox)
					if err != nil {
						return nil, err
					}
					y, err := b.panelMVM(s.panel, patch)
					if err != nil {
						return nil, err
					}
					p := oy*ow + ox
					for f := 0; f < l.F; f++ {
						out[p*l.F+f] = y[f] + l.B[f]
					}
				}
			}
			v = out
		default:
			out, err := s.layer.Forward(v)
			if err != nil {
				return nil, err
			}
			v = out
		}
	}
	return v, nil
}

// PredictBatchCost prices a batch of n items without executing it — the
// dispatcher's exact Von Neumann prior (InferBatch returns the same cost).
func (b *Backend) PredictBatchCost(n int) energy.Cost {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.predictLocked(n)
}

func (b *Backend) predictLocked(n int) energy.Cost {
	// Bit-serial configs digitally replay the per-(input bit, slice) ADC
	// transfer: on average half the input bits are set, so the integer
	// kernel costs slices*InputBits/2 times the plain GEMM (never less
	// than the GEMM itself).
	replay := 1.0
	if !b.xcfg.Functional {
		numSlices := float64(b.xcfg.WeightBits / b.xcfg.CellBits)
		if r := numSlices * float64(b.xcfg.InputBits) / 2; r > 1 {
			replay = r
		}
	}
	total := energy.Zero
	for i := range b.stages {
		s := &b.stages[i]
		var k Kernel
		switch {
		case s.dense != nil:
			k = b.stageGEMM(n, s.panel.Rows, s.panel.Cols, 1, replay)
		case s.conv != nil:
			patches := s.conv.OutH() * s.conv.OutW()
			k = b.stageGEMM(n, s.panel.Rows, s.panel.Cols, patches, replay)
		default:
			k = Kernel{
				Name:  s.layer.Name(),
				Flops: float64(n) * s.layer.Flops(),
				Bytes: float64(n) * 16 * float64(s.layer.InSize()),
			}
		}
		c, err := b.mach.Run(k)
		if err != nil {
			// Machine and kernel were validated at construction; a failure
			// here is a programming error, not a runtime condition.
			panic(err)
		}
		total = total.Seq(c)
	}
	return total
}

// stageGEMM prices one dense/conv stage for a batch of n items: the panel
// GEMM (vectors per item x patch, weights once per flush unless the whole
// quantized network is LLC-resident), plus the quantize and offset-removal
// overhead, with the bit-serial replay factor applied to the GEMM flops.
func (b *Backend) stageGEMM(n, rows, cols, patches int, replay float64) Kernel {
	vecs := float64(n) * float64(patches)
	k := GEMM(int(vecs), rows, cols, 4, float64(b.hcfg.LLCSize), b.resident)
	k.Flops *= replay
	// Input quantization (scale scan + round) and offset removal ride on
	// top of the GEMM, once per vector.
	k.Flops += vecs * (2*float64(rows) + 6*float64(cols))
	// Quantized-input traffic: one int32 vector per (item, patch).
	k.Bytes += vecs * 4 * float64(rows)
	k.Bytes = b.roundLines(k.Bytes)
	return k
}

// roundLines rounds byte traffic up to whole cache lines.
func (b *Backend) roundLines(bytes float64) float64 {
	line := float64(b.hcfg.LineSize)
	return math.Ceil(bytes/line) * line
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
