package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"math/rand"
)

// getBody fetches url and returns status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryEndpoints stands up the -listen HTTP server on a loopback
// port and walks it through its lifecycle: initializing (503s before the
// batch run installs its objects), serving (/metrics in Prometheus text,
// /healthz 200 with the fault-scan JSON, pprof wired), and unhealthy
// (tripped breaker -> 503).
func TestTelemetryEndpoints(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// Before initialization both data endpoints must 503, not 404 or 200.
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics before init = %d, want 503", code)
	}
	code, body := getBody(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/healthz before init = %d, want 503", code)
	}
	var hb healthzBody
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatalf("/healthz body not JSON: %v (%q)", err, body)
	}
	if hb.Status != "initializing" {
		t.Errorf("pre-init status %q, want initializing", hb.Status)
	}

	// Install a live serving pipeline.
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	net, err := nn.NewMLP("telemetry-test", []int{32, 24, 10}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	pair, _, err := serve.NewShadowPair(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	brk, err := serve.NewBreaker(pair, serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(brk,
		serve.WithBatch(4, time.Millisecond), serve.WithQueueBound(64),
		serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tel.set(reg, pair, brk)

	// Serve a little traffic so the registry has content to scrape.
	in := make([]float64, 32)
	for i := 0; i < 8; i++ {
		if _, _, err := srv.Submit(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}

	code, body = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200:\n%s", code, body)
	}
	for _, want := range []string{
		"# TYPE serve_requests counter",
		"serve_requests 8",
		"# TYPE serve_latency_ns summary",
		`serve_latency_ns{quantile="0.99"}`,
		"serve_latency_ns_count 8",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200: %s", code, body)
	}
	hb = healthzBody{}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || hb.Tripped || hb.LostCols != 0 {
		t.Errorf("healthy pipeline reported %+v", hb)
	}
	if hb.Stages == 0 {
		t.Error("health scan covered no stages")
	}

	// pprof is wired onto the private mux.
	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", code)
	}

	// A tripped breaker flips /healthz to 503 without touching /metrics.
	probe := [][]float64{in}
	badLabels := []int{-1}
	brk2, err := serve.NewBreaker(pair, serve.WithProbe(0.9, probe, badLabels), serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := brk2.Reprogram(net); err == nil {
		t.Fatal("impossible probe labels passed")
	}
	tel.set(reg, pair, brk2)
	code, body = getBody(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with tripped breaker = %d, want 503: %s", code, body)
	}
	hb = healthzBody{}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if !hb.Tripped || hb.Status != "unhealthy" {
		t.Errorf("tripped breaker reported %+v", hb)
	}
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusOK {
		t.Error("/metrics must keep serving while unhealthy")
	}
}

// TestRunWithListen drives the full closed loop with -listen enabled and
// scrapes the endpoint mid-run: the batch mode installs its registry and
// the scrape shows real traffic counters.
func TestRunWithListen(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	o := options{
		clients:  4,
		requests: 64,
		batch:    4,
		maxdelay: time.Millisecond,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     7,
		dispatch: "cim",
	}
	// run() would start its own listener from o.listen; drive runBatch
	// directly against the already-started one to keep the port in hand.
	cfg := dpe.DefaultConfig()
	cfg.Seed = o.seed
	rng := rand.New(rand.NewSource(o.seed))
	net, err := nn.NewMLP("listen-test", o.layers, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, o.layers[0])
	}
	st, err := runBatch(cfg, net, net, inputs, o, loadgen{}, tel)
	if err != nil {
		t.Fatal(err)
	}
	if st.requests != o.requests {
		t.Fatalf("served %d, want %d", st.requests, o.requests)
	}
	code, body := getBody(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics after run = %d", code)
	}
	if !strings.Contains(body, fmt.Sprintf("serve_requests %d", o.requests)) {
		t.Errorf("/metrics does not show the run's %d requests:\n%s", o.requests, body)
	}
}

// TestTelemetryFleet: in fleet mode /metrics carries the fleet registry
// plus every engine's registry under an {engine="<id>"} label, and
// /healthz aggregates per-engine health with the rolling status.
func TestTelemetryFleet(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	net, err := nn.NewMLP("tel-fleet", []int{16, 8}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	// Hedging, overload control, and a chaos plan are all armed so the
	// /healthz body's resilience fields carry live state, not zero values.
	plan, err := chaos.ScenarioPlan("straggler", 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := fleet.New(cfg, net, fleet.WithEngines(2),
		fleet.WithHedge(fleet.HedgeConfig{}),
		fleet.WithOverloadControl(fleet.OverloadConfig{}),
		fleet.WithChaos(chaos.New(plan)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tel.setFleet(f)

	in := make([]float64, 16)
	if _, _, err := f.Submit(context.Background(), in); err != nil {
		t.Fatal(err)
	}

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics fleet = %d, want 200", code)
	}
	for _, want := range []string{
		"fleet_requests 1",
		`serve_requests{engine="0"}`,
		`serve_requests{engine="1"}`,
		`serve_latency_ns{engine="0",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet /metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz fleet = %d, want 200", code)
	}
	var fb fleetHealthzBody
	if err := json.Unmarshal([]byte(body), &fb); err != nil {
		t.Fatalf("fleet /healthz body not JSON: %v (%q)", err, body)
	}
	if fb.Status != "ok" || len(fb.Engines) != 2 || fb.Rolling.Active {
		t.Errorf("fleet /healthz body = %+v", fb)
	}
	// Resilience state: the active chaos scenario by name, hedging on,
	// brownout off (no overload yet), and every engine's live AIMD limit.
	if fb.Chaos != "straggler" || !fb.Hedging || fb.Brownout {
		t.Errorf("fleet /healthz resilience state = chaos %q hedging %v brownout %v",
			fb.Chaos, fb.Hedging, fb.Brownout)
	}
	for _, eh := range fb.Engines {
		if eh.Limit <= 0 {
			t.Errorf("engine %d /healthz limit = %d, want > 0 with overload control on", eh.ID, eh.Limit)
		}
	}

	// Drain every engine: the fleet has no routable members and /healthz
	// must flip to 503.
	for _, e := range f.Engines() {
		if err := f.Leave(e.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz with no routable engines = %d, want 503", code)
	}
}
