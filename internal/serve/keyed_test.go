package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"cimrev/internal/dpe"
)

func noisyPairConfig() dpe.Config {
	cfg := testEngineConfig()
	cfg.Crossbar.ReadNoise = 0.02
	return cfg
}

// TestSubmitKeyedBitIdentical: outputs served through the full pipeline
// (queue, batcher, shadow pair, breaker) with caller-owned keys are
// bit-identical to the same keys run directly through a twin engine —
// regardless of how the batcher grouped the concurrent submissions.
func TestSubmitKeyedBitIdentical(t *testing.T) {
	net := testMLP(t, 32, 24, 10)
	const n = 32
	inputs := testInputs(n, 32, 7)

	// Reference: direct keyed inference on a twin engine.
	ref, err := dpe.New(noisyPairConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(net); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	want, _, err := ref.InferBatchKeyed(seqs, inputs)
	if err != nil {
		t.Fatal(err)
	}

	pair, _, err := NewShadowPair(noisyPairConfig(), net)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := NewBreaker(pair)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(brk, WithBatch(8, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := make([][]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := srv.SubmitKeyed(context.Background(), uint64(i), inputs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got[i] = out
		}(i)
	}
	wg.Wait()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d: batched keyed output differs from direct keyed inference", i)
			}
		}
	}
}

// TestSubmitKeyedMixedWithPlain: keyed and unkeyed requests interleaved
// through one server must not disturb each other — keyed requests never
// consume engine-counter positions, so the unkeyed stream stays identical
// to an unkeyed-only run.
func TestSubmitKeyedMixedWithPlain(t *testing.T) {
	net := testMLP(t, 32, 24, 10)
	inputs := testInputs(8, 32, 7)

	// Reference: unkeyed-only server consuming counter 0..7 in order.
	mk := func() *Server {
		pair, _, err := NewShadowPair(noisyPairConfig(), net)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(pair, WithBatch(4, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	refSrv := mk()
	defer refSrv.Close()
	want := make([][]float64, len(inputs))
	for i, in := range inputs {
		out, _, err := refSrv.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	// Mixed: same unkeyed requests in order, with keyed requests (high
	// keys, far from the counter range) interleaved between them.
	mixSrv := mk()
	defer mixSrv.Close()
	for i, in := range inputs {
		if _, _, err := mixSrv.SubmitKeyed(context.Background(), uint64(1000+i), in); err != nil {
			t.Fatal(err)
		}
		out, _, err := mixSrv.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want[i] {
			if out[j] != want[i][j] {
				t.Fatalf("request %d: interleaved keyed traffic perturbed the unkeyed noise stream", i)
			}
		}
	}
}

// TestQueueDepth: the live backpressure signal the fleet's least-loaded
// policy reads. Idle server reports zero.
func TestQueueDepth(t *testing.T) {
	net := testMLP(t, 16, 8)
	eng := loadedEngine(t, net)
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.QueueDepth(); got != 0 {
		t.Errorf("idle QueueDepth = %d, want 0", got)
	}
}
