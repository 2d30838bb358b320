package crossbar

// Program-path equivalence: the row-major adapter (Program) and the
// column-major path (ProgramColumns) must leave identical arrays behind —
// stored levels, packed lanes, column sums, ADC tables, costs, wear, and
// fault reports — and a crossbar reprogrammed to a smaller shape must
// never read a cell outside its new used region.

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
)

// programCase is one crossbar configuration the program path feeds.
type programCase struct {
	name   string
	cfg    Config
	faults faultinject.Model
}

// programCases covers every kernel the stored state reaches: lane-packed
// and generic (CellBits 1 → 8 slices, no packing) storage under the
// bit-serial and functional kernels, the noisy bit-serial kernel, and the
// program-and-verify path with every fault class active.
func programCases() []programCase {
	base := DefaultConfig()
	generic := base
	generic.CellBits = 1
	functional := base
	functional.Functional = true
	functionalGeneric := generic
	functionalGeneric.Functional = true
	noisy := base
	noisy.ReadNoise = 0.02
	faulty := base
	faulty.SpareCols = 4
	return []programCase{
		{"bitserial-packed", base, faultinject.Model{}},
		{"bitserial-generic", generic, faultinject.Model{}},
		{"functional-packed", functional, faultinject.Model{}},
		{"functional-generic", functionalGeneric, faultinject.Model{}},
		{"noisy", noisy, faultinject.Model{}},
		{"faulty", faulty, faultinject.Model{
			StuckLowRate: 0.01, StuckHighRate: 0.01,
			DriftRate: 0.01, DriftMax: 0.3,
			WriteFailRate: 0.05, Seed: 7,
		}},
	}
}

// transposed returns w's columns, built independently of Columns.
func transposed(w [][]float64) [][]float64 {
	wT := make([][]float64, len(w[0]))
	for c := range wT {
		wT[c] = make([]float64, len(w))
		for r := range w {
			wT[c][r] = w[r][c]
		}
	}
	return wT
}

// newCaseTile returns an empty tile for pc with its fault model installed.
func newCaseTile(t *testing.T, pc programCase) *Tile {
	t.Helper()
	tile, err := NewTile(pc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.faults.Enabled() {
		if err := tile.SetFaults(pc.faults, pc.faults.Root()); err != nil {
			t.Fatal(err)
		}
	}
	return tile
}

// caseNoise returns per-item noise sources when pc is noisy, else nil.
func caseNoise(pc programCase, n int) []noise.Source {
	if pc.cfg.ReadNoise == 0 {
		return nil
	}
	return perItemSources(noise.NewSource(41), n)
}

// sameStoredState fails unless crossbars a and b hold identical programmed
// state over their used region.
func sameStoredState(t *testing.T, label string, a, b *Crossbar) {
	t.Helper()
	if a.usedRows != b.usedRows || a.usedCols != b.usedCols {
		t.Fatalf("%s: used shape %dx%d != %dx%d", label, a.usedRows, a.usedCols, b.usedRows, b.usedCols)
	}
	if a.wScale != b.wScale || a.adcStep != b.adcStep || a.adcMaxSum != b.adcMaxSum {
		t.Fatalf("%s: scale/ADC (%v %v %v) != (%v %v %v)", label,
			a.wScale, a.adcStep, a.adcMaxSum, b.wScale, b.adcStep, b.adcMaxSum)
	}
	if !reflect.DeepEqual(a.adcLUT, b.adcLUT) {
		t.Fatalf("%s: ADC tables differ", label)
	}
	if (a.packedT == nil) != (b.packedT == nil) {
		t.Fatalf("%s: packed lanes built on one side only", label)
	}
	rows := a.cfg.Rows
	for c := 0; c < a.usedCols; c++ {
		if a.colSumInt[c] != b.colSumInt[c] {
			t.Fatalf("%s: column %d sum %d != %d", label, c, a.colSumInt[c], b.colSumInt[c])
		}
		for r := 0; r < a.usedRows; r++ {
			i := c*rows + r
			for s := range a.sliceT {
				if a.sliceT[s][i] != b.sliceT[s][i] {
					t.Fatalf("%s: slice %d cell (%d,%d) level %d != %d", label, s, r, c, a.sliceT[s][i], b.sliceT[s][i])
				}
			}
			if a.packedT != nil && a.packedT[i] != b.packedT[i] {
				t.Fatalf("%s: packed cell (%d,%d) %#x != %#x", label, r, c, a.packedT[i], b.packedT[i])
			}
		}
	}
}

// sameTileResults fails unless tiles a and b agree with == on wear, fault
// reports, per-block state, single-vector and batched MVM outputs and
// costs for n inputs drawn from rng.
func sameTileResults(t *testing.T, label string, pc programCase, a, b *Tile, rng *rand.Rand, n int) {
	t.Helper()
	if a.Writes() != b.Writes() {
		t.Fatalf("%s: writes %d != %d", label, a.Writes(), b.Writes())
	}
	if a.FaultReport() != b.FaultReport() {
		t.Fatalf("%s: fault report %+v != %+v", label, a.FaultReport(), b.FaultReport())
	}
	for br := range a.blocks {
		for bc := range a.blocks[br] {
			sameStoredState(t, label, a.blocks[br][bc], b.blocks[br][bc])
		}
	}
	m, _ := a.Shape()
	ins := batchInputs(rng, n, m)
	nss := caseNoise(pc, n)
	for i, in := range ins {
		ns := NoNoise
		if nss != nil {
			ns = nss[i]
		}
		ya, ca, err := a.MVM(in, ns)
		if err != nil {
			t.Fatal(err)
		}
		yb, cb, err := b.MVM(in, ns)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb || !reflect.DeepEqual(ya, yb) {
			t.Fatalf("%s: item %d MVM differs (cost %v vs %v)", label, i, ca, cb)
		}
	}
	ya, ca, err := a.MVMBatch(ins, nss)
	if err != nil {
		t.Fatal(err)
	}
	yb, cb, err := b.MVMBatch(ins, nss)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb || !reflect.DeepEqual(ya, yb) {
		t.Fatalf("%s: batched MVM differs (cost %v vs %v)", label, ca, cb)
	}
}

// TestProgramColumnsMatchesRowMajor pins the row-major adapter against the
// column path with ==: program cost, wear, fault reports, every block's
// stored state, and MVM outputs, on single-block, multi-block, and partial
// edge-block shapes (130x10 on 128x128 arrays leaves a 2-row edge block),
// first programmed and then reprogrammed in place with new weights.
func TestProgramColumnsMatchesRowMajor(t *testing.T) {
	shapes := []struct{ m, n int }{{130, 10}, {128, 128}, {40, 200}, {1, 1}, {257, 129}}
	for _, pc := range programCases() {
		var stuck int
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.n)))
			rowTile := newCaseTile(t, pc)
			colTile := newCaseTile(t, pc)
			for pass := 0; pass < 2; pass++ {
				w := randomMatrix(rng, sh.m, sh.n)
				cr, err := rowTile.Program(w)
				if err != nil {
					t.Fatal(err)
				}
				cc, err := colTile.ProgramColumns(transposed(w))
				if err != nil {
					t.Fatal(err)
				}
				label := pc.name + "/" + itoa(sh.m) + "x" + itoa(sh.n) + "/pass" + itoa(pass)
				if cr != cc {
					t.Fatalf("%s: program cost %v != %v", label, cr, cc)
				}
				sameTileResults(t, label, pc, rowTile, colTile, rng, 3)
			}
			stuck += rowTile.FaultReport().StuckCells
		}
		if pc.faults.Enabled() && stuck == 0 {
			t.Fatalf("%s: fault model injected nothing; the case is vacuous", pc.name)
		}
	}
}

// TestProgramShrinkReadsNoStaleCells reprograms a crossbar from its full
// array down to smaller shapes after poisoning every cell, lane, and
// column sum it holds. Program writes only the new used region, so the
// poison survives outside it; the outputs, costs, and fault reports must
// still equal those of a fresh crossbar programmed with the small shape
// directly — no kernel may read outside the used region.
func TestProgramShrinkReadsNoStaleCells(t *testing.T) {
	for _, pc := range programCases() {
		if pc.faults.Enabled() {
			// Position-pinned faults only: transient and drift draws
			// depend on the program epoch, which a fresh array restarts.
			pc.faults = faultinject.Model{StuckLowRate: 0.02, StuckHighRate: 0.02, Seed: 3}
		}
		var stuck int
		for _, sh := range []struct{ m, n int }{{5, 7}, {100, 3}, {127, 127}, {1, 128}} {
			label := pc.name + "/" + itoa(sh.m) + "x" + itoa(sh.n)
			rng := rand.New(rand.NewSource(int64(sh.m + 7*sh.n)))
			used, fresh := newCaseCrossbar(t, pc), newCaseCrossbar(t, pc)
			if _, err := used.Program(randomMatrix(rng, pc.cfg.Rows, pc.cfg.Cols)); err != nil {
				t.Fatal(err)
			}
			cellMask := uint8(1<<pc.cfg.CellBits - 1)
			for _, sl := range used.sliceT {
				for i := range sl {
					sl[i] = cellMask
				}
			}
			for i := range used.packedT {
				used.packedT[i] = math.MaxUint64
			}
			for i := range used.colSumInt {
				used.colSumInt[i] = math.MaxInt32
			}

			w := randomMatrix(rng, sh.m, sh.n)
			cu, err := used.Program(w)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := fresh.Program(w)
			if err != nil {
				t.Fatal(err)
			}
			if cu != cf || used.FaultReport() != fresh.FaultReport() {
				t.Fatalf("%s: cost/report %v %+v != fresh %v %+v", label, cu, used.FaultReport(), cf, fresh.FaultReport())
			}
			sameStoredState(t, label, used, fresh)
			stuck += used.FaultReport().StuckCells

			ins := batchInputs(rng, 5, sh.m)
			nss := caseNoise(pc, len(ins))
			for i, in := range ins {
				ns := NoNoise
				if nss != nil {
					ns = nss[i]
				}
				yu, _, err := used.MVM(in, ns)
				if err != nil {
					t.Fatal(err)
				}
				yf, _, err := fresh.MVM(in, ns)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(yu, yf) {
					t.Fatalf("%s: item %d reads stale cells: %v != fresh %v", label, i, yu, yf)
				}
			}
			bu, _, err := used.MVMBatch(ins, nss)
			if err != nil {
				t.Fatal(err)
			}
			bf, _, err := fresh.MVMBatch(ins, nss)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bu, bf) {
				t.Fatalf("%s: batched kernel reads stale cells", label)
			}
		}
		if pc.faults.Enabled() && stuck == 0 {
			t.Fatalf("%s: fault model injected nothing; the case is vacuous", pc.name)
		}
	}
}

// newCaseCrossbar returns an empty crossbar for pc with its fault model
// installed.
func newCaseCrossbar(t *testing.T, pc programCase) *Crossbar {
	t.Helper()
	xb, err := New(pc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.faults.Enabled() {
		if err := xb.SetFaults(pc.faults, pc.faults.Root()); err != nil {
			t.Fatal(err)
		}
	}
	return xb
}

// TestQuantizeColumnsMatchesProgram pins the digital twin's view of the
// arrays: every block QuantizeColumns returns holds exactly the scale,
// column sums, slice levels, and ADC table the programmed tile stores.
func TestQuantizeColumnsMatchesProgram(t *testing.T) {
	for _, pc := range programCases() {
		if pc.faults.Enabled() {
			continue // stored levels deviate from intent by design
		}
		for _, sh := range []struct{ m, n int }{{130, 10}, {257, 129}, {3, 2}} {
			label := pc.name + "/" + itoa(sh.m) + "x" + itoa(sh.n)
			rng := rand.New(rand.NewSource(int64(sh.m * sh.n)))
			wT := transposed(randomMatrix(rng, sh.m, sh.n))
			tile := newCaseTile(t, pc)
			if _, err := tile.ProgramColumns(wT); err != nil {
				t.Fatal(err)
			}
			qz, err := QuantizeColumns(pc.cfg, wT)
			if err != nil {
				t.Fatal(err)
			}
			brows, bcols := tile.BlockGrid()
			if qz.Rows != sh.m || qz.Cols != sh.n || qz.BRows != brows || qz.BCols != bcols || len(qz.Blocks) != brows*bcols {
				t.Fatalf("%s: quantized %dx%d grid %dx%d with %d blocks, tile has %dx%d grid %dx%d",
					label, qz.Rows, qz.Cols, qz.BRows, qz.BCols, len(qz.Blocks), sh.m, sh.n, brows, bcols)
			}
			cellMask := int32(1)<<pc.cfg.CellBits - 1
			for b, q := range qz.Blocks {
				x := tile.blocks[b/bcols][b%bcols]
				if q.Rows != x.usedRows || q.Cols != x.usedCols || q.WScale != x.wScale {
					t.Fatalf("%s block %d: shape/scale %dx%d %v != %dx%d %v", label, b,
						q.Rows, q.Cols, q.WScale, x.usedRows, x.usedCols, x.wScale)
				}
				if !reflect.DeepEqual(q.ColSumInt, x.colSumInt[:x.usedCols]) || !reflect.DeepEqual(q.ADCLUT, x.adcLUT) {
					t.Fatalf("%s block %d: column sums or ADC table differ", label, b)
				}
				for c := 0; c < q.Cols; c++ {
					for r := 0; r < q.Rows; r++ {
						v := q.WIntT[c*q.Rows+r]
						for s, sl := range x.sliceT {
							if got := uint8((v >> uint(s*pc.cfg.CellBits)) & cellMask); got != sl[c*pc.cfg.Rows+r] {
								t.Fatalf("%s block %d: slice %d cell (%d,%d) %d != stored %d", label, b, s, r, c, got, sl[c*pc.cfg.Rows+r])
							}
						}
					}
				}
			}
		}
	}
}

// TestProgramRejectsNonFiniteBeforeWriting: a NaN or ±Inf weight fails
// the row-major and column-major entry points and the twin's quantizer,
// and leaves a programmed crossbar serving its previous weights with its
// wear unchanged.
func TestProgramRejectsNonFiniteBeforeWriting(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(9))
	w := randomMatrix(rng, 6, 5)
	in := randomVector(rng, 6)
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	want, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	writes := xb.Writes()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		wb := randomMatrix(rng, 6, 5)
		wb[4][2] = bad
		if _, err := xb.Program(wb); err == nil || !strings.Contains(err.Error(), "non-finite weight") {
			t.Fatalf("%v: crossbar Program err = %v", bad, err)
		}
		tile, err := NewTile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tile.ProgramColumns(transposed(wb)); err == nil {
			t.Fatalf("%v: tile ProgramColumns accepted a non-finite weight", bad)
		}
		if _, err := QuantizeColumns(cfg, transposed(wb)); err == nil {
			t.Fatalf("%v: QuantizeColumns accepted a non-finite weight", bad)
		}
	}
	got, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || xb.Writes() != writes {
		t.Fatal("rejected programs changed the crossbar")
	}
}

// TestProgramColumnsShapeErrors: empty and ragged column-major input fails
// before any block is touched.
func TestProgramColumnsShapeErrors(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, wT := range map[string][][]float64{
		"no columns":   nil,
		"empty column": {{}},
		"ragged":       {{1, 2}, {3}},
	} {
		if _, err := tile.ProgramColumns(wT); err == nil {
			t.Errorf("%s: ProgramColumns accepted it", name)
		}
		if _, err := QuantizeColumns(smallConfig(), wT); err == nil {
			t.Errorf("%s: QuantizeColumns accepted it", name)
		}
	}
	if tile.CrossbarCount() != 0 {
		t.Fatal("a rejected program allocated arrays")
	}
}
