package main

import (
	"context"
	"math"
	"testing"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/hybrid"
	"cimrev/internal/obs"
)

func TestExactQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		wantQ  float64
		wantV  float64
		wantLb string
	}{
		{2000, 0.99, 0.99, 1980, "p99"},   // 20 samples beyond: p99 stands
		{1000, 0.99, 0.99, 990, "p99"},    // exactly 10 beyond
		{100, 0.99, 0.90, 90, "p90"},      // too few beyond p99: drop to p90
		{500, 0.5, 0.5, 250, "p50"},       // medians never move
		{15, 0.99, 8.0 / 15, 8, "p53.33"}, // tiny sample: no lower than the median
	} {
		got := exactQuantile(seq(tc.n), tc.q)
		if got.N != tc.n || got.Value != tc.wantV || math.Abs(got.Q-tc.wantQ) > 1e-12 || got.label() != tc.wantLb {
			t.Errorf("n=%d q=%g: got %+v (%s), want Q %g value %g (%s)", tc.n, tc.q, got, got.label(), tc.wantQ, tc.wantV, tc.wantLb)
		}
	}
	if got := exactQuantile(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	const rate, end = 4000.0, int64(5 * time.Second)
	a, b, c := poissonDue(1, rate, end), poissonDue(1, rate, end), poissonDue(2, rate, end)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[len(a)-1] == c[len(c)-1] {
		t.Errorf("seeds 1 and 2 gave the same schedule")
	}
	if got := float64(len(a)) / 5; math.Abs(got-rate)/rate > 0.03 {
		t.Errorf("offered rate %.0f/s, want %.0f/s within 3%%", got, rate)
	}
	counts := map[string]int{}
	const n = 20000
	for i := uint64(0); i < n; i++ {
		counts[pickClass(1, i).name]++
	}
	for _, c := range mixClasses {
		if got := float64(counts[c.name]) / n; math.Abs(got-c.weight) > 0.015 {
			t.Errorf("class %s drawn %.3f of the time, want %.2f", c.name, got, c.weight)
		}
	}
}

// plainBackend has InferBatch only.
type plainBackend struct{}

func (plainBackend) InferBatch(in [][]float64) ([][]float64, energy.Cost, error) {
	return in, energy.Zero, nil
}

func TestWrapperKeepsMethodSet(t *testing.T) {
	et := newTracer(newClock(), keyedIDs{}.flushIDs).engine()
	if _, err := et.wrap(plainBackend{}, false); err == nil {
		t.Fatal("wrapping a backend without the optional methods must fail, not add them")
	}
	inst, err := newNoisyRolling(3)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := inst.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w, err := et.wrap(st.engs[0].Breaker(), true)
	if err != nil {
		t.Fatal(err)
	}
	// The interfaces serve and hybrid assert to pick their code paths.
	var be any = w
	if _, ok := be.(interface {
		InferBatchCtx(obs.Ctx, [][]float64) ([][]float64, energy.Cost, error)
	}); !ok {
		t.Error("wrapper lost InferBatchCtx")
	}
	if _, ok := be.(interface {
		InferBatchKeyedCtx(obs.Ctx, []uint64, [][]float64) ([][]float64, energy.Cost, error)
	}); !ok {
		t.Error("wrapper lost InferBatchKeyedCtx")
	}
	if _, ok := be.(hybrid.Reprogrammer); !ok {
		t.Error("wrapper lost Reprogram")
	}
	if _, ok := be.(hybrid.CIMBackend); !ok {
		t.Error("wrapper is not a hybrid.CIMBackend")
	}
}

// TestTracedStackIsTheSameProgram submits the same sequence to a wrapped
// and an unwrapped stack, one request at a time so both see the same
// flushes, and requires bit-identical replies and dispatcher counts.
func TestTracedStackIsTheSameProgram(t *testing.T) {
	t.Run("dense-closed", func(t *testing.T) {
		inst, err := newDenseClosed(5)
		if err != nil {
			t.Fatal(err)
		}
		w := inst.(*denseClosed)
		const n = 40 // past the dispatcher's probe at every 16th flush
		run := func(tr *tracer) ([][]float64, [3]int64) {
			st, _, err := w.setup(tr)
			if err != nil {
				t.Fatal(err)
			}
			var outs [][]float64
			for k := 0; k < n; k++ {
				buf := w.bufs[k%denseClients]
				copy(buf, w.pool[k%densePool])
				out, _, err := st.srv.Submit(context.Background(), buf)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
			st.close()
			c, v, p := st.disps[0].Counts()
			return outs, [3]int64{c, v, p}
		}
		plainOut, plainCounts := run(nil)
		tr := newTracer(newClock(), w.flushIDs)
		tracedOut, tracedCounts := run(tr)
		compare(t, plainOut, tracedOut)
		if plainCounts != tracedCounts {
			t.Errorf("dispatcher counts differ: untraced %v, traced %v", plainCounts, tracedCounts)
		}
		if plainCounts[1] == 0 {
			t.Errorf("no flush went to the twin (counts %v): the test would not see a VN path change", plainCounts)
		}
		if got := len(tr.engines[0].spans); got != n {
			t.Errorf("traced %d flushes, want %d", got, n)
		}
	})
	t.Run("noisy-rolling", func(t *testing.T) {
		inst, err := newNoisyRolling(5)
		if err != nil {
			t.Fatal(err)
		}
		w := inst.(*noisyRolling)
		const n = 8
		run := func(tr *tracer) ([][]float64, [3]int64) {
			st, _, err := w.setup(tr)
			if err != nil {
				t.Fatal(err)
			}
			var outs [][]float64
			for k := uint64(0); k < n; k++ {
				if k == n/2 {
					if rep := st.fl.RollingReprogram(w.netB); rep.Err() != nil {
						t.Fatal(rep.Err())
					}
				}
				out, _, err := st.fl.SubmitSeq(context.Background(), k, w.pool[w.inputOf(k)])
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
			st.close()
			var counts [3]int64
			for _, d := range st.disps {
				c, v, p := d.Counts()
				counts[0], counts[1], counts[2] = counts[0]+c, counts[1]+v, counts[2]+p
			}
			return outs, counts
		}
		plainOut, plainCounts := run(nil)
		tracedOut, tracedCounts := run(newTracer(newClock(), w.flushIDs))
		compare(t, plainOut, tracedOut)
		if plainCounts != tracedCounts {
			t.Errorf("dispatcher counts differ: untraced %v, traced %v", plainCounts, tracedCounts)
		}
		// Keyed replies equal the standalone oracle under the live weights.
		keys := []uint64{0, n - 1}
		inputs := [][]float64{w.pool[w.inputOf(0)], w.pool[w.inputOf(n-1)]}
		a, err := oracleOutputs(w.cfg, w.netA, inputs, keys)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oracleOutputs(w.cfg, w.netB, inputs, keys)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(plainOut[0], a[0]) || !equal(plainOut[n-1], b[1]) {
			t.Error("keyed replies differ from the single-engine oracle")
		}
	})
}

func compare(t *testing.T, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d vs %d replies", len(a), len(b))
	}
	for i := range a {
		if !equal(a[i], b[i]) {
			t.Fatalf("reply %d differs between the untraced and the traced stack", i)
		}
	}
}

// TestReconciliation runs a short traced mix-open drive: the identities
// hold, and losing one flush span is reported, not hidden.
func TestReconciliation(t *testing.T) {
	inst, err := newMixOpen(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.oracle(); err != nil {
		t.Fatal(err)
	}
	clk := newClock()
	tr := newTracer(clk, inst.flushIDs)
	st, _, err := inst.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	log := inst.drive(st, clk, window{warm: 100 * time.Millisecond, length: 300 * time.Millisecond}, true)
	st.close()
	m := measure(log)
	if m.wrongAll != 0 || m.completed == 0 {
		t.Fatalf("wrong %d, completed %d", m.wrongAll, m.completed)
	}
	if _, bad := layers(log, m, st, tr); len(bad) != 0 {
		t.Fatalf("mismatches on an intact trace: %v", bad)
	}
	et := tr.engines[0]
	et.spans = et.spans[1:]
	if _, bad := layers(log, m, st, tr); len(bad) == 0 {
		t.Fatal("a lost flush span went unreported")
	}
}

// TestSimOverFlushes reconstructs flushes from replies' simulated-time
// readings and skips flushes that a split batch left partial.
func TestSimOverFlushes(t *testing.T) {
	log := &runLog{fullFlush: 64}
	for f := int64(1); f <= 100; f++ {
		n := 64
		switch f {
		case 20:
			n = 60 // four clients missed this flush ...
		case 21:
			n = 68 // ... and rode the next one
		}
		for i := 0; i < n; i++ {
			log.reqs = append(log.reqs, reqRec{outcome: okReply, simAfter: f * 1000, pj: float64(f)})
		}
	}
	m := measure(log)
	// The first 64 full flushes after flush 16 are flushes 22 to 85.
	wantPJ := 0.0
	for f := 22; f <= 85; f++ {
		wantPJ += 64 * float64(f)
	}
	if m.simReqs != 64*64 || m.simPS != (85-21)*1000 || m.simPJ != wantPJ {
		t.Errorf("got %d requests, %d ps, %g pJ; want %d, %d, %g", m.simReqs, m.simPS, m.simPJ, 64*64, (85-21)*1000, wantPJ)
	}
}
