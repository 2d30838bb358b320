package crossbar

// The weight quantizer: the one definition of how a block of real-valued
// weights becomes crossbar state. Program and the Von Neumann twin
// (internal/vonneumann) both go through it, so the stored format — per-block
// max |w| normalization, shift encoding into [0, 2^WeightBits-1] with
// math.Round, integer column sums, and the ADC transfer table — lives in
// this file only.
//
// The quantizer works column by column, the layout the arrays store
// (sliceT is column-major). Column-major input — wT[c][r], which is what
// nn.Dense.W already is ([out][in]: one row of W per output column) — is
// read in place; row-major input is gathered one block at a time into a
// column-major buffer the size of one crossbar, so neither layout is ever
// copied whole and everything past the gather sees a single layout.

import (
	"fmt"
	"math"

	"cimrev/internal/parallel"
)

// matrix is a validated rows x cols weight matrix that hands out
// crossbar-sized blocks column-major, whatever the source layout. The two
// constructors below are the only code that knows the layouts.
type matrix struct {
	rows, cols int
	// block returns rows [r0, r1) and columns [c0, c1) as a block.
	block func(r0, r1, c0, c1 int) block
}

// rowMajor views w[r][c], rejecting empty and ragged input. Each block is
// gathered into a column-major buffer the size of the block, so w is never
// copied whole.
func rowMajor(w [][]float64) (matrix, error) {
	if len(w) == 0 {
		return matrix{}, fmt.Errorf("crossbar: empty weight matrix")
	}
	n := len(w[0])
	if n == 0 {
		return matrix{}, fmt.Errorf("crossbar: empty weight rows")
	}
	for r, row := range w {
		if len(row) != n {
			return matrix{}, fmt.Errorf("crossbar: ragged matrix at row %d", r)
		}
	}
	return matrix{rows: len(w), cols: n, block: func(r0, r1, c0, c1 int) block {
		rows := r1 - r0
		buf := make([]float64, rows*(c1-c0))
		for r, row := range w[r0:r1] {
			for c, v := range row[c0:c1] {
				buf[c*rows+r] = v
			}
		}
		b := block{cols: make([][]float64, c1-c0), r0: r0, c0: c0}
		for c := range b.cols {
			b.cols[c] = buf[c*rows : (c+1)*rows]
		}
		return b
	}}, nil
}

// colMajor views wT[c][r], rejecting empty and ragged input. Blocks read
// wT in place.
func colMajor(wT [][]float64) (matrix, error) {
	if len(wT) == 0 {
		return matrix{}, fmt.Errorf("crossbar: empty weight matrix")
	}
	m := len(wT[0])
	if m == 0 {
		return matrix{}, fmt.Errorf("crossbar: empty weight columns")
	}
	for c, col := range wT {
		if len(col) != m {
			return matrix{}, fmt.Errorf("crossbar: ragged matrix at column %d", c)
		}
	}
	return matrix{rows: m, cols: len(wT), block: func(r0, r1, c0, c1 int) block {
		b := block{cols: make([][]float64, c1-c0), r0: r0, c0: c0}
		for c := range b.cols {
			b.cols[c] = wT[c0+c][r0:r1]
		}
		return b
	}}, nil
}

// grid returns the block grid a rows x cols matrix splits into on c's
// arrays: ceil(rows/Rows) x ceil(cols/Cols) blocks.
func (c Config) grid(rows, cols int) (brows, bcols int) {
	return (rows + c.Rows - 1) / c.Rows, (cols + c.Cols - 1) / c.Cols
}

// gridBlock returns block b of a's grid in (block-row, block-col) order.
func (c Config) gridBlock(a matrix, bcols, b int) block {
	r0 := (b / bcols) * c.Rows
	c0 := (b % bcols) * c.Cols
	return a.block(r0, min(r0+c.Rows, a.rows), c0, min(c0+c.Cols, a.cols))
}

// block is one crossbar-sized window of a weight matrix, column-major:
// cols[c][r] is the weight at row r0+r, column c0+c of the source.
type block struct {
	cols   [][]float64
	r0, c0 int
}

func (b block) rows() int { return len(b.cols[0]) }

// scale returns the block's normalization scale, max |w| (1 for an
// all-zero block, which programs cleanly). A NaN or Inf weight is an
// error, reported before any caller state changes.
func (b block) scale() (float64, error) {
	scale := 0.0
	for c, col := range b.cols {
		for r, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("crossbar: non-finite weight at row %d col %d", b.r0+r, b.c0+c)
			}
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	return scale, nil
}

// quantizeColumn shift-encodes one block column into dst (len(dst) ≥
// len(col)): w01 = (w/scale+1)/2, level = Round(w01·wMax). It returns the
// column's integer sum, the offset the digital backend removes.
func quantizeColumn(dst []int32, col []float64, scale, wMax float64) int64 {
	dst = dst[:len(col)]
	var sum int64
	for r, v := range col {
		w01 := (v/scale + 1) / 2 // shift encode into [0,1]
		q := int32(math.Round(w01 * wMax))
		dst[r] = q
		sum += int64(q)
	}
	return sum
}

// wMax is the largest quantized weight level.
func (c Config) wMax() float64 { return float64(int(1)<<c.WeightBits - 1) }

// adcTransfer is the ADC transfer function for a block of usedRows rows:
// the ADC clips column sums to maxSum = usedRows·cellMax and quantizes
// [0, maxSum] into 2^ADCBits levels of width step. lut (grown or reused
// from the given slice) tabulates Round(v/step)·step for every integer
// column sum v ∈ [0, maxSum], computed with the bit-serial kernels' own
// expression so table lookups are bit-exact. Validate guarantees ADCBits
// >= 1, so the step is always positive — there is deliberately no runtime
// fallback for a zero step.
func (c Config) adcTransfer(usedRows int, lut []float64) (step, maxSum float64, _ []float64) {
	cellMax := float64(int(1)<<c.CellBits - 1)
	maxSum = float64(usedRows) * cellMax
	step = maxSum / float64(int(1)<<c.ADCBits-1)
	if need := int(maxSum) + 1; cap(lut) < need {
		lut = make([]float64, need)
	} else {
		lut = lut[:need]
	}
	for v := range lut {
		lut[v] = math.Round(float64(v)/step) * step
	}
	return step, maxSum, lut
}

// QuantizedBlock is the integer image of one programmed crossbar: exactly
// the quantities Program derives for a block, with the slice levels kept
// whole (slice s of a level is (level >> s·CellBits) & cellMask).
type QuantizedBlock struct {
	// Rows and Cols are the block's used dimensions.
	Rows, Cols int
	// WScale restores quantized weights to the caller's range.
	WScale float64
	// WIntT[c*Rows+r] is the shift-encoded quantized weight, column-major.
	WIntT []int32
	// ColSumInt[c] is the integer column sum removed as offset.
	ColSumInt []int64
	// ADCLUT[v] is the ADC transfer of integer column sum v.
	ADCLUT []float64
}

// Quantized is the integer image of a whole matrix programmed on a tile:
// the block grid and one QuantizedBlock per block.
type Quantized struct {
	// Rows and Cols are the logical matrix dimensions.
	Rows, Cols int
	// BRows x BCols is the block grid, ceil(Rows/cfg.Rows) x
	// ceil(Cols/cfg.Cols).
	BRows, BCols int
	// Blocks[br*BCols+bc] is block (br, bc); the block covers rows from
	// br*cfg.Rows and columns from bc*cfg.Cols.
	Blocks []QuantizedBlock
}

// QuantizeColumns quantizes the column-major matrix wT (wT[c][r]) exactly
// as Tile.ProgramColumns stores it on cfg's arrays, each block normalized
// by its own max |w|. Blocks quantize in parallel across the worker pool.
// A non-finite weight fails the whole call.
func QuantizeColumns(cfg Config, wT [][]float64) (*Quantized, error) {
	a, err := colMajor(wT)
	if err != nil {
		return nil, err
	}
	return quantize(cfg, a)
}

// QuantizeRows is QuantizeColumns for a row-major matrix w[r][c], stored
// as Tile.Program stores it.
func QuantizeRows(cfg Config, w [][]float64) (*Quantized, error) {
	a, err := rowMajor(w)
	if err != nil {
		return nil, err
	}
	return quantize(cfg, a)
}

func quantize(cfg Config, a matrix) (*Quantized, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	brows, bcols := cfg.grid(a.rows, a.cols)
	wMax := cfg.wMax()
	blocks := make([]QuantizedBlock, brows*bcols)
	err := parallel.ForErr(len(blocks), func(i int) error {
		b := cfg.gridBlock(a, bcols, i)
		scale, err := b.scale()
		if err != nil {
			return err
		}
		ur, uc := b.rows(), len(b.cols)
		q := QuantizedBlock{
			Rows: ur, Cols: uc, WScale: scale,
			WIntT:     make([]int32, ur*uc),
			ColSumInt: make([]int64, uc),
		}
		for c, col := range b.cols {
			q.ColSumInt[c] = quantizeColumn(q.WIntT[c*ur:(c+1)*ur], col, scale, wMax)
		}
		_, _, q.ADCLUT = cfg.adcTransfer(ur, nil)
		blocks[i] = q
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Quantized{Rows: a.rows, Cols: a.cols, BRows: brows, BCols: bcols, Blocks: blocks}, nil
}
