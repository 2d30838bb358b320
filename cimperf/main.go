// Command cimperf is the repository's benchmark: it drives the serving
// stack (fleet → serve → hybrid → dpe → crossbar, with the vonneumann
// twin) through its public API under three named workloads, checks every
// reply against a standalone single-engine oracle, and prints the
// end-to-end metrics in both clocks — host wall time and the simulated
// energy.Cost clock. A traced run (--trace 1) wraps the backends it hands
// to the stack, splits time by layer, and checks that counters reconcile
// across layers.
//
// Usage, from the repository root:
//
//	bash cimperf/run.sh --workload dense-closed --seed 1 --seconds 10 --trace 0
//	bash cimperf/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the metrics BENCHMARK.json
// lists); the lines before it name every metric with its unit, the
// percentile and sample count beside each quantile, and where the run
// happened. A wrong output makes the run fail with exit code 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Seeds: claims are tuned on defaultSeed and re-checked on heldOutSeed,
// which no tuning of this benchmark used.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupRepeats is how many times a run builds its stack; setup_s is the
// median build.
const setupRepeats = 31

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("cimperf", flag.ContinueOnError)
	fset.SetOutput(stderr)
	usage := "workload, or all:"
	for _, w := range workloads {
		usage += fmt.Sprintf("\n  %s: %s", w.name, w.why)
	}
	name := fset.String("workload", "all", usage)
	seed := fset.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fset.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fset.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "cimperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, n := range names {
		res, err := runWorkload(stdout, n, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "cimperf: %s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "cimperf: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(out io.Writer, name string, seed int64, length time.Duration, traced bool) (result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return result{}, err
	}
	inst, err := w.new(seed)
	if err != nil {
		return result{}, err
	}
	prov, err := json.Marshal(provenance(name, seed, length, traced))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)

	// Set-up, several times: the last build before the run serves it, and
	// the rest come after it, so the median spans the run's host load.
	setups, st, err := timeSetups(inst, setupRepeats/2+1, true)
	if err != nil {
		return result{}, err
	}
	if err := inst.oracle(); err != nil {
		st.close()
		return result{}, err
	}
	setupMS := func(f func(setupTimes) time.Duration) float64 {
		ds := make([]float64, len(setups))
		for i, t := range setups {
			ds[i] = float64(f(t)) / 1e6
		}
		return median(ds)
	}

	win := window{warm: min(max(length/5, time.Second), 3*time.Second), length: length}
	if traced {
		win.length = length / 2
	}
	log := inst.drive(st, newClock(), win, false)
	st.close()
	more, _, err := timeSetups(inst, setupRepeats/2, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, more...)
	m := measure(log)
	if err := valid(log, m); err != nil {
		return result{}, err
	}
	res := result{Correct: m.wrongAll == 0, Attempted: m.attempted, Failed: m.errors()}
	if m.completed == 0 {
		return result{}, fmt.Errorf("no correct reply inside the timed window")
	}
	if !traced {
		metrics, qs := endToEnd(m, setupMS(func(t setupTimes) time.Duration { return t.total })/1e3, maxRSSMB())
		printMetrics(out, name, metrics, qs)
		printOutcomes(out, name, m, log)
		// Printed, but left out of the result line: error_rate and
		// slo_ok_frac are 0 on some workloads (no failures; closed-loop
		// latencies far above the SLO), and the result's failed count
		// carries the failures. latency_p99_ms follows the host's
		// scheduling stalls more than the program: over 10 runs its
		// spread (IQR/median) was 0.25-0.75 on a shared 2-core Xeon.
		for _, k := range []string{"error_rate", "slo_ok_frac", "latency_p99_ms"} {
			delete(metrics, k)
		}
		res.Metrics = metrics
		return res, finite(metrics)
	}

	// Traced run: the same workload on a freshly built stack with every
	// backend wrapped.
	clk := newClock()
	tr := newTracer(clk, inst.flushIDs)
	tst, _, err := inst.setup(tr)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	tlog := inst.drive(tst, clk, win, true)
	tst.close()
	tm := measure(tlog)
	if err := valid(tlog, tm); err != nil {
		return result{}, err
	}
	metrics, bad := layers(tlog, tm, tst, tr)
	kern, err := kernelMetrics(seed)
	if err != nil {
		return result{}, err
	}
	for k, v := range kern {
		metrics[k] = v
	}
	metrics["dpe.setup_ms"] = metric{setupMS(func(t setupTimes) time.Duration { return t.dpe }), "ms"}
	metrics["vonneumann.setup_ms"] = metric{setupMS(func(t setupTimes) time.Duration { return t.vn }), "ms"}
	metrics["bench.trace_overhead"] = metric{tm.throughput() / m.throughput(), "ratio"}
	printMetrics(out, name, metrics, nil)
	printOutcomes(out, name+" (traced)", tm, tlog)
	for _, b := range bad {
		fmt.Fprintf(out, "%s reconciliation mismatch: %s\n", name, b)
	}
	res.Correct = res.Correct && tm.wrongAll == 0 && len(bad) == 0
	res.Attempted += tm.attempted
	res.Failed += tm.errors()
	res.Metrics = metrics
	return res, finite(metrics)
}

// timeSetups builds the stack n times, timing each build. With keep, the
// last stack is returned open; every other one is closed.
func timeSetups(inst instance, n int, keep bool) ([]setupTimes, *stack, error) {
	var ts []setupTimes
	for i := 0; i < n; i++ {
		runtime.GC()
		st, t, err := inst.setup(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, t)
		if keep && i == n-1 {
			return ts, st, nil
		}
		st.close()
	}
	return ts, nil, nil
}

// valid rejects an open-loop run whose generator fell behind its
// schedule: its latencies would describe the generator, not the stack.
func valid(log *runLog, m e2e) error {
	if !log.open {
		return nil
	}
	late := exactQuantile(sortedCopy(m.late), 0.99)
	if late.Value > float64(lateLimit)/1e6 {
		return fmt.Errorf("invalid run: generator lateness %s %.3f ms (n=%d) exceeds %v", late.label(), late.Value, late.N, lateLimit)
	}
	return nil
}

// printOutcomes prints how the window's requests ended and how many
// replies were checked against the oracle.
func printOutcomes(out io.Writer, name string, m e2e, log *runLog) {
	checked := "all"
	if log.checked >= 0 {
		checked = fmt.Sprintf("%d sampled", log.checked)
	}
	fmt.Fprintf(out, "%s outcomes: attempted %d ok %d wrong %d shed %d dropped %d failed %d; replies checked: %s; simulated metrics over %s\n",
		name, m.attempted, m.ok, m.wrong, m.shed, m.dropped, m.failed, checked, m.simScope)
}

func finite(ms map[string]metric) error {
	for k, v := range ms {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	return nil
}

// printMetrics prints one line per metric, sorted by name, with the
// percentile and sample count beside each quantile.
func printMetrics(out io.Writer, workload string, ms map[string]metric, qs map[string]quantile) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("%s %-30s %14.6g %s", workload, k, ms[k].Value, ms[k].Unit)
		if q, ok := qs[k]; ok {
			line += fmt.Sprintf("  (%s of n=%d)", q.label(), q.N)
		}
		fmt.Fprintln(out, line)
	}
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenanceRecord says where and on what a result was measured.
type provenanceRecord struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	DefaultSeed  int64   `json:"default_seed"`
	HeldOutSeed  int64   `json:"held_out_seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
}

func provenance(name string, seed int64, length time.Duration, traced bool) provenanceRecord {
	return provenanceRecord{
		Workload: name, Seed: seed, DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed,
		Seconds: length.Seconds(), Traced: traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA256: sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision the binary was built from, as the Go
// toolchain stamped it; a checkout outside git has none, and then the
// source digest identifies the code.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes go.mod and every Go file under internal/ of the
// repository the benchmark runs in (its working directory).
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unavailable"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
