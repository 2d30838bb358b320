package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// testEngineConfig is a small functional-mode DPE for fast tests.
func testEngineConfig() dpe.Config {
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	return cfg
}

func testMLP(t *testing.T, sizes ...int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("serve-test", sizes, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func loadedEngine(t *testing.T, net *nn.Network) *dpe.Engine {
	t.Helper()
	eng, err := dpe.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	return eng
}

func testInputs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	return inputs
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{MaxBatch: 0, MaxDelay: time.Millisecond, QueueBound: 1},
		{MaxBatch: -3, MaxDelay: time.Millisecond, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: 0, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: -time.Second, QueueBound: 1},
		{MaxBatch: 1, MaxDelay: time.Millisecond, QueueBound: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
		}
	}
	// New surfaces validation and nil-backend errors.
	if _, err := New(nil); err == nil {
		t.Error("nil backend accepted")
	}
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	if _, err := New(eng, WithConfig(Config{MaxBatch: 0, MaxDelay: time.Millisecond, QueueBound: 1})); err == nil {
		t.Error("invalid config accepted by New")
	}
}

// TestServeMatchesDirectInfer: every output served through the batcher is
// bit-identical to the same input run directly through a fresh engine —
// batching must not change results in functional (noise-free) mode.
func TestServeMatchesDirectInfer(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	for _, width := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			parallel.SetWidth(width)
			net := testMLP(t, 32, 24, 10)
			eng := loadedEngine(t, net)
			srv, err := New(eng, WithBatch(8, 5*time.Millisecond), WithQueueBound(256))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const n = 64
			inputs := testInputs(n, 32, 7)
			outs := make([][]float64, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, cost, err := srv.Submit(context.Background(), inputs[i])
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					if cost.LatencyPS <= 0 || cost.EnergyPJ <= 0 {
						t.Errorf("request %d: degenerate cost %v", i, cost)
					}
					outs[i] = out
				}(i)
			}
			wg.Wait()

			ref := loadedEngine(t, net)
			for i := 0; i < n; i++ {
				want, _, err := ref.Infer(inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				if len(outs[i]) != len(want) {
					t.Fatalf("request %d: output length %d != %d", i, len(outs[i]), len(want))
				}
				for j := range want {
					if outs[i][j] != want[j] {
						t.Fatalf("request %d output[%d] = %g, want %g (bit-identical)", i, j, outs[i][j], want[j])
					}
				}
			}

			s := srv.Registry().Snapshot()
			if s.Counters["serve.requests"] != n {
				t.Errorf("serve.requests = %d, want %d", s.Counters["serve.requests"], n)
			}
			if s.Counters["serve.batches"] == 0 {
				t.Error("no batches recorded")
			}
			if got := s.Histograms["serve.latency_ns"].Count; got != n {
				t.Errorf("latency observations = %d, want %d", got, n)
			}
			if srv.SimTimePS() <= 0 {
				t.Error("no simulated serving time accumulated")
			}
		})
	}
}

// blockingBackend blocks inside InferBatch until released; it lets tests
// fill the ingress queue deterministically.
type blockingBackend struct {
	entered chan struct{} // receives one token per InferBatch entry
	release chan struct{}
	batches [][]int // recorded batch sizes (len of each batch)
	mu      sync.Mutex
}

func (b *blockingBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	b.entered <- struct{}{}
	<-b.release
	b.mu.Lock()
	sizes := make([]int, len(inputs))
	for i := range inputs {
		sizes[i] = len(inputs[i])
	}
	b.batches = append(b.batches, sizes)
	b.mu.Unlock()
	outs := make([][]float64, len(inputs))
	for i := range outs {
		outs[i] = []float64{float64(i)}
	}
	return outs, energy.Cost{LatencyPS: 1000, EnergyPJ: float64(len(inputs))}, nil
}

// TestBackpressure: once the dispatcher is stuck in a flush and the queue
// holds QueueBound requests, further Submits are rejected with
// ErrOverloaded — the queue must never grow past its bound.
func TestBackpressure(t *testing.T) {
	const bound = 4
	bk := &blockingBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	srv, err := New(bk, WithBatch(1, time.Millisecond), WithQueueBound(bound))
	if err != nil {
		t.Fatal(err)
	}

	// First request: dispatcher picks it up and blocks in the backend.
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := srv.Submit(context.Background(), []float64{0})
		firstDone <- err
	}()
	<-bk.entered // dispatcher is now stuck inside InferBatch

	// Fill the queue to its bound with parked requests.
	var parked sync.WaitGroup
	parkedErrs := make([]error, bound)
	for i := 0; i < bound; i++ {
		parked.Add(1)
		go func(i int) {
			defer parked.Done()
			_, _, err := srv.Submit(context.Background(), []float64{float64(i + 1)})
			parkedErrs[i] = err
		}(i)
	}
	// Wait until all bound requests are actually enqueued.
	deadline := time.After(5 * time.Second)
	for len(srv.queue) < bound {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %d/%d", len(srv.queue), bound)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The queue is at its high-water mark: the next request must be shed.
	if _, _, err := srv.Submit(context.Background(), []float64{99}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit past high-water mark = %v, want ErrOverloaded", err)
	}
	if got := srv.Registry().Counter("serve.rejected").Value(); got != 1 {
		t.Errorf("serve.rejected = %d, want 1", got)
	}

	// Release the backend; everything parked must complete successfully.
	close(bk.release)
	go func() { // drain entry tokens for the remaining batches
		for range bk.entered {
		}
	}()
	if err := <-firstDone; err != nil {
		t.Errorf("first request: %v", err)
	}
	parked.Wait()
	for i, err := range parkedErrs {
		if err != nil {
			t.Errorf("parked request %d: %v", i, err)
		}
	}
	srv.Close()
	close(bk.entered)
}

// countingBackend records batch sizes without blocking.
type countingBackend struct {
	mu    sync.Mutex
	sizes []int
	delay time.Duration
}

func (b *countingBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.sizes = append(b.sizes, len(inputs))
	b.mu.Unlock()
	outs := make([][]float64, len(inputs))
	for i := range outs {
		outs[i] = []float64{0}
	}
	return outs, energy.Cost{LatencyPS: 10, EnergyPJ: 1}, nil
}

// TestDeadlineFlush: a lone request must not wait for a full batch — the
// MaxDelay deadline flushes it.
func TestDeadlineFlush(t *testing.T) {
	bk := &countingBackend{}
	srv, err := New(bk, WithBatch(1<<20, 10*time.Millisecond), WithQueueBound(16))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if _, _, err := srv.Submit(context.Background(), []float64{1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline flush took %v", elapsed)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.sizes) != 1 || bk.sizes[0] != 1 {
		t.Errorf("batch sizes = %v, want [1]", bk.sizes)
	}
}

// TestMaxBatchCap: no dispatched batch may exceed MaxBatch, and every
// request must be served exactly once.
func TestMaxBatchCap(t *testing.T) {
	const maxBatch, n = 4, 64
	bk := &countingBackend{delay: 2 * time.Millisecond} // lets the queue pile up
	srv, err := New(bk, WithBatch(maxBatch, 50*time.Millisecond), WithQueueBound(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := srv.Submit(context.Background(), []float64{1}); err == nil {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	if served.Load() != n {
		t.Errorf("served %d/%d requests", served.Load(), n)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	total := 0
	for _, sz := range bk.sizes {
		if sz > maxBatch {
			t.Errorf("batch of %d exceeds MaxBatch %d", sz, maxBatch)
		}
		total += sz
	}
	if total != n {
		t.Errorf("batches cover %d requests, want %d", total, n)
	}
}

// TestCloseDrains: Close completes queued work (no dropped requests) and
// subsequent Submits fail fast with ErrClosed.
func TestCloseDrains(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng, WithBatch(4, 20*time.Millisecond), WithQueueBound(64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	inputs := testInputs(n, 16, 5)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = srv.Submit(context.Background(), inputs[i])
		}(i)
	}
	wg.Wait()
	srv.Close()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if _, _, err := srv.Submit(context.Background(), inputs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestPoisonPillIsolated: a malformed request (wrong input length) fails
// alone; its batchmates still get correct answers via the per-request
// retry path.
func TestPoisonPillIsolated(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng, WithBatch(4, 30*time.Millisecond), WithQueueBound(64))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good := testInputs(3, 16, 9)
	bad := []float64{1, 2, 3} // wrong length
	var wg sync.WaitGroup
	var badErr error
	goodErrs := make([]error, len(good))
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, badErr = srv.Submit(context.Background(), bad)
	}()
	for i := range good {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, goodErrs[i] = srv.Submit(context.Background(), good[i])
		}(i)
	}
	wg.Wait()
	if badErr == nil {
		t.Error("malformed request succeeded")
	}
	for i, err := range goodErrs {
		if err != nil {
			t.Errorf("well-formed request %d poisoned: %v", i, err)
		}
	}
}

// failingBackend fails every batch with a plain (non-health) error, so
// the server's per-request fallback fails every request too.
type failingBackend struct{}

func (failingBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return nil, energy.Zero, errors.New("backend down")
}

// TestLatencyCountsSuccessesOnly: serve.latency_ns observes successful
// requests only, so its count always equals serve.requests — failures
// must not drag near-zero latencies into p50/p99.
func TestLatencyCountsSuccessesOnly(t *testing.T) {
	check := func(t *testing.T, reg *metrics.Registry, wantOK int64) {
		t.Helper()
		ok := reg.Counter("serve.requests").Value()
		if ok != wantOK {
			t.Fatalf("serve.requests = %d, want %d", ok, wantOK)
		}
		if got := reg.Histogram("serve.latency_ns").Count(); got != ok {
			t.Fatalf("serve.latency_ns count = %d, want serve.requests = %d", got, ok)
		}
	}
	t.Run("failing-backend", func(t *testing.T) {
		srv, err := New(failingBackend{}, WithBatch(1, time.Millisecond), WithQueueBound(8))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, _, err := srv.Submit(context.Background(), []float64{1}); err == nil {
				t.Fatal("failing backend served a request")
			}
		}
		srv.Close()
		if got := srv.Registry().Counter("serve.errors").Value(); got != 5 {
			t.Fatalf("serve.errors = %d, want 5", got)
		}
		check(t, srv.Registry(), 0)
	})
	t.Run("poison-pill", func(t *testing.T) {
		srv, err := New(loadedEngine(t, testMLP(t, 16, 8)), WithBatch(1, time.Millisecond), WithQueueBound(8))
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range append(testInputs(3, 16, 9), []float64{1, 2, 3}) {
			if _, _, err := srv.Submit(context.Background(), in); (err == nil) != (i < 3) {
				t.Fatalf("request %d: err = %v", i, err)
			}
		}
		srv.Close()
		check(t, srv.Registry(), 3)
	})
}

// TestServeClusterBackend: the batcher runs unchanged over a multi-board
// dpe.Cluster — the Backend seam covers both deployment shapes.
func TestServeClusterBackend(t *testing.T) {
	net := testMLP(t, 24, 16, 8)
	cl, err := dpe.NewCluster(testEngineConfig(), 2, 5, 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(net); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cl, WithBatch(8, 10*time.Millisecond), WithQueueBound(128))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inputs := testInputs(16, 24, 13)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := srv.Submit(context.Background(), inputs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(out) != 8 {
				t.Errorf("request %d: output length %d", i, len(out))
			}
		}(i)
	}
	wg.Wait()
}
