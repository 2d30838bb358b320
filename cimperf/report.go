package main

// Turning a run's records into metrics, and the traced run's cross-layer
// reconciliation.

import (
	"fmt"
	"sort"
	"time"
)

// slo is the latency limit a reply must meet to count in slo_ok_frac: the
// 25 ms SLO of docs/CAPACITY.md.
const slo = 25 * time.Millisecond

// lateLimit is the generator lateness (p99) past which an open-loop run
// is invalid: with its schedule that late, the generator alone would miss
// the SLO, so the run's latencies describe the generator rather than the
// stack. Sleeps on a 2-core Xeon @ 2.1GHz VM overshoot by ~1 ms at the
// median and up to ~20 ms when other load shares the host, so the limit
// is the SLO itself.
const lateLimit = slo

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e is what a timed window measured.
type e2e struct {
	attempted, ok, wrong, shed, dropped, failed, pending int64
	sloOK                                                int64
	completed                                            int64     // correct replies returned inside the window
	seconds                                              float64   // the window's length
	lat                                                  []float64 // ms, correct replies of requests started in the window
	late                                                 []float64 // ms, open loop: issue time − due time
	simReqs                                              int64     // correct replies the simulated clock measured
	simPJ                                                float64   // their Σ energy
	simPS                                                int64     // the simulated serving time they took
	simScope                                             string    // what the simulated metrics cover
	wrongAll                                             int64     // wrong replies anywhere in the run, warm-up included
}

func measure(log *runLog) e2e {
	m := e2e{seconds: float64(log.t1-log.t0) / 1e9, simPS: log.simPS1 - log.simPS0, simScope: "the timed window"}
	for i := range log.reqs {
		r := &log.reqs[i]
		if r.outcome == wrongReply {
			m.wrongAll++
		}
		if r.outcome == okReply && r.done >= log.t0 && r.done < log.t1 {
			m.completed++
			m.simReqs++
			m.simPJ += r.pj
		}
		if r.start < log.t0 || r.start >= log.t1 {
			continue
		}
		m.attempted++
		if log.open {
			m.late = append(m.late, float64(r.issued-r.start)/1e6)
		}
		switch r.outcome {
		case okReply:
			m.ok++
			lat := r.done - r.start
			m.lat = append(m.lat, float64(lat)/1e6)
			if lat <= int64(slo) {
				m.sloOK++
			}
		case wrongReply:
			m.wrong++
		case shed:
			m.shed++
		case dropped:
			m.dropped++
		case failed:
			m.failed++
		default:
			m.pending++
		}
	}
	if log.fullFlush > 0 {
		m.simOverFlushes(log)
	}
	return m
}

const (
	simSkip    = 16 // flushes of warm-up before simOverFlushes looks
	simFlushes = 64 // flushes it covers: four cycles of the hybrid probe
)

// simOverFlushes measures the simulated metrics over simFlushes
// consecutive full flushes, the first after simSkip, reconstructed from
// outside. A reply's reading of the simulated serving time, taken just
// after it returns, is the stack's total right after the flush that
// carried it, so replies sharing a reading shared a flush. Any run of
// full flushes of one batch size holds the same number of the hybrid
// dispatcher's probe flushes (every 16th flush of a size goes to the
// other backend), so the metrics come out the same on every run. A reply
// read late, after the next flush ended, makes two flushes look partial,
// and the search moves past them. Without such a run of flushes the
// timed-window figures stand.
func (m *e2e) simOverFlushes(log *runLog) {
	type flush struct {
		simAfter int64
		n        int
		pj       float64
	}
	var ok []reqRec
	for _, r := range log.reqs {
		if r.outcome == okReply {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].simAfter < ok[j].simAfter })
	var fl []flush
	for _, r := range ok {
		if len(fl) == 0 || fl[len(fl)-1].simAfter != r.simAfter {
			fl = append(fl, flush{simAfter: r.simAfter})
		}
		fl[len(fl)-1].n++
		fl[len(fl)-1].pj += r.pj
	}
	for start := simSkip; start+simFlushes <= len(fl); start++ {
		end, pj := start, 0.0
		for ; end < start+simFlushes && fl[end].n == log.fullFlush; end++ {
			pj += fl[end].pj
		}
		if end < start+simFlushes {
			start = end // fl[end] is partial: restart after it
			continue
		}
		m.simReqs = int64(simFlushes * log.fullFlush)
		m.simPJ = pj
		m.simPS = fl[end-1].simAfter - fl[start-1].simAfter
		m.simScope = fmt.Sprintf("%d full flushes", simFlushes)
		return
	}
}

func (m e2e) errors() int64 { return m.wrong + m.shed + m.dropped + m.failed + m.pending }

func (m e2e) throughput() float64 { return float64(m.completed) / m.seconds }

// endToEnd turns the window into the end-to-end metrics, plus the
// latency quantiles for printing.
func endToEnd(m e2e, setupS, rssMB float64) (map[string]metric, map[string]quantile) {
	lat := sortedCopy(m.lat)
	qs := map[string]quantile{"latency_p50_ms": exactQuantile(lat, 0.5), "latency_p99_ms": exactQuantile(lat, 0.99)}
	simS := float64(m.simPS) * 1e-12
	out := map[string]metric{
		"throughput_rps": {m.throughput(), "1/s"},
		"latency_p50_ms": {qs["latency_p50_ms"].Value, "ms"},
		"latency_p99_ms": {qs["latency_p99_ms"].Value, "ms"},
		"slo_ok_frac":    {ratio(m.sloOK, m.attempted), "frac"},
		"error_rate":     {ratio(m.errors(), m.attempted), "frac"},
		"setup_s":        {setupS, "s"},
		"max_rss_mb":     {rssMB, "MB"},
		"sim_rps":        {float64(m.simReqs) / simS, "1/sim_s"},
		"sim_pj_per_req": {m.simPJ / float64(m.simReqs), "pJ"},
	}
	return out, qs
}

// ---- traced run ---------------------------------------------------------

// spanRef locates one flush span.
type spanRef struct{ engine, span int }

// layers computes the per-layer metrics of a traced run, measured as m,
// and checks the reconciliation identities, returning every mismatch.
func layers(log *runLog, m e2e, st *stack, tr *tracer) (map[string]metric, []string) {
	var bad []string
	check := func(what string, a, b int64) {
		if a != b {
			bad = append(bad, fmt.Sprintf("%s: %d != %d", what, a, b))
		}
	}
	inWindow := func(t int64) bool { return t >= log.t0 && t < log.t1 }

	// Flush spans: per-layer time split over the window, and totals over
	// the whole run for reconciliation.
	var (
		items, flushes, busy                int64
		cimNS, cimItems, cimFlushes, selfNS int64
		vnNS, vnItems                       int64
		okItemsAll, callItemsAll            int64
		occurrences                         = map[uint64][]spanRef{}
	)
	for e, et := range tr.engines {
		for s, sp := range et.spans {
			callItemsAll += int64(sp.items)
			if !sp.ok {
				continue
			}
			okItemsAll += int64(sp.items)
			for _, id := range sp.ids {
				occurrences[id] = append(occurrences[id], spanRef{e, s})
			}
			// Busy time is clipped to the window; the other per-flush
			// figures take the flushes that started inside it.
			busy += max(0, min(sp.end, log.t1)-max(sp.start, log.t0))
			if !inWindow(sp.start) {
				continue
			}
			d := sp.end - sp.start
			items += int64(sp.items)
			flushes++
			if sp.cim {
				cimNS += sp.cimNS
				cimItems += int64(sp.items)
				cimFlushes++
				selfNS += d - sp.cimNS
			} else {
				vnNS += d
				vnItems += int64(sp.items)
			}
		}
	}

	// Link every replied call to the flush that carried it: the next
	// unused occurrence of its id (ids repeat only for dense-closed
	// clients, whose calls are recorded in submit order).
	var wait, reply []float64
	var replied, unlinked int64
	next := map[uint64]int{}
	for i := range log.reqs {
		r := &log.reqs[i]
		for _, c := range r.calls {
			if !c.replied {
				continue
			}
			replied++
			occ := occurrences[c.id]
			k := next[c.id]
			if k >= len(occ) {
				unlinked++
				continue
			}
			next[c.id] = k + 1
			sp := tr.engines[occ[k].engine].spans[occ[k].span]
			if inWindow(r.start) {
				wait = append(wait, float64(sp.start-c.submit)/1e3)
				reply = append(reply, float64(c.ret-sp.end)/1e3)
			}
		}
	}

	// Identities.
	var outcomes [6]int64
	for i := range log.reqs {
		outcomes[log.reqs[i].outcome]++
	}
	check("replied calls that no flush carried", unlinked, 0)
	check("attempted = ok + shed + dropped + failed", int64(len(log.reqs)),
		outcomes[okReply]+outcomes[wrongReply]+outcomes[shed]+outcomes[dropped]+outcomes[failed])
	served := st.counter("serve.requests")
	check("Σ wrapper flush items = Σ served items", okItemsAll, served)
	check("Σ replies received = Σ served items", replied, served)
	var routed int64
	var routedMax int64
	if st.fl != nil {
		snap := st.fl.Registry().Snapshot().Counters
		for _, e := range st.engs {
			routed += e.Routed()
			routedMax = max(routedMax, e.Routed())
		}
		check("fleet.requests = Σ Engine.Routed() + fleet.unrouteable", snap["fleet.requests"], routed+snap["fleet.unrouteable"])
	}
	var cim, vn, pinned int64
	for _, d := range st.disps {
		c, v, p := d.Counts()
		cim, vn, pinned = cim+c, vn+v, pinned+p
	}
	if len(st.disps) > 0 {
		check("hybrid cim + vn + pinned = items flushed through the dispatcher", cim+vn+pinned, callItemsAll)
	}

	var wear int64
	for _, p := range st.pairs {
		wear += p.Wear()
	}
	winNS := float64(log.t1 - log.t0)
	out := map[string]metric{
		"dpe.infer_ns_per_item":      {ratio(cimNS, cimItems), "ns"},
		"dpe.wear":                   {float64(wear), "count"},
		"vonneumann.ns_per_item":     {ratio(vnNS, vnItems), "ns"},
		"hybrid.cim_items":           {float64(cim), "count"},
		"hybrid.vn_items":            {float64(vn), "count"},
		"hybrid.pinned_items":        {float64(pinned), "count"},
		"hybrid.self_us_per_flush":   {0, "us"},
		"serve.queue_wait_p50_us":    {exactQuantile(sortedCopy(wait), 0.5).Value, "us"},
		"serve.queue_wait_p99_us":    {exactQuantile(sortedCopy(wait), 0.99).Value, "us"},
		"serve.reply_p99_us":         {exactQuantile(sortedCopy(reply), 0.99).Value, "us"},
		"serve.batch_items_mean":     {ratio(items, flushes), "count"},
		"serve.busy_frac":            {float64(busy) / (float64(st.engines()) * winNS), "frac"},
		"serve.rejected":             {float64(st.counter("serve.rejected")), "count"},
		"fleet.route_imbalance":      {0, "ratio"},
		"fleet.failovers":            {0, "count"},
		"fleet.rolling_ms":           {0, "ms"},
		"fleet.reprogram_visible_ps": {0, "ps"},
		"fleet.reprogram_hidden_pj":  {0, "pJ"},
		"bench.late_p99_ms":          {0, "ms"},
		"bench.peak_inflight":        {float64(log.peakInflight), "count"},
	}
	if len(st.disps) > 0 {
		out["hybrid.self_us_per_flush"] = metric{ratio(selfNS, cimFlushes) / 1e3, "us"}
	}
	if st.fl != nil && routed > 0 {
		out["fleet.route_imbalance"] = metric{float64(routedMax) / (float64(routed) / float64(st.engines())), "ratio"}
		out["fleet.failovers"] = metric{float64(st.fl.Registry().Snapshot().Counters["fleet.failovers"]), "count"}
	}
	if n := len(log.rolls); n > 0 {
		var wall, vis int64
		var hid float64
		for _, r := range log.rolls {
			wall += r.wallNS
			vis += r.visiblePS
			hid += r.hiddenPJ
			if r.failedCount > 0 {
				bad = append(bad, fmt.Sprintf("rolling reprogram failed on %d engines", r.failedCount))
			}
		}
		out["fleet.rolling_ms"] = metric{float64(wall) / float64(n) / 1e6, "ms"}
		out["fleet.reprogram_visible_ps"] = metric{float64(vis) / float64(n), "ps"}
		out["fleet.reprogram_hidden_pj"] = metric{hid / float64(n), "pJ"}
	}
	if log.open {
		out["bench.late_p99_ms"] = metric{exactQuantile(sortedCopy(m.late), 0.99).Value, "ms"}
	}
	return out, bad
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
