package main

// Load generation. The benchmark owns its generators and clocks: closed
// loops are client goroutines that each wait for their reply, and the open
// loop is one goroutine issuing a seeded Poisson schedule, timing every
// request from the moment it was due.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is how one request ended.
type outcome uint8

const (
	pending    outcome = iota // no outcome recorded: a bug in the benchmark
	okReply                   // reply received and equal to the oracle
	wrongReply                // reply received but different from the oracle
	shed                      // refused by backpressure (serve.ErrOverloaded)
	dropped                   // never issued: the open loop's in-flight cap was hit
	failed                    // any other error
)

// call is one submit call into the serving stack. A fan-out request makes
// several; the traced run links each to the flush that served it.
type call struct {
	id      uint64 // noise key, or client id on unkeyed workloads
	submit  int64  // ns since base, at the submit call
	ret     int64  // ns since base, when the submit call returned
	replied bool   // the call got a reply, so exactly one flush carried it
}

// reqRec is one request's life as the benchmark saw it. Times are ns
// since the run's base.
type reqRec struct {
	start   int64 // closed loop: the submit call; open loop: the due time
	issued  int64 // when the first submit call was made
	done    int64 // when the last reply returned
	pj      float64
	outcome outcome
	calls   []call // traced runs only
	// simAfter is the stack's simulated serving time read just after the
	// reply (closed loop).
	simAfter int64
}

// window is the run's timing: warm-up, then the timed window.
type window struct {
	warm, length time.Duration
}

// runLog is everything one drive recorded.
type runLog struct {
	clk            clock
	t0, t1         int64 // the timed window, ns since base
	simPS0, simPS1 int64 // the stack's simulated serving time at t0 and t1
	reqs           []reqRec
	open           bool
	peakInflight   int64
	rolls          []rollRec
	// fullFlush, when set, is the number of requests in a full flush of
	// a single-engine stack that every client rides; the simulated
	// metrics are then measured over whole flushes (simOverFlushes).
	fullFlush int
	// checked counts replies compared with the oracle; -1 means every
	// reply was.
	checked int64
}

// rollRec is one rolling reprogram on noisy-rolling.
type rollRec struct {
	wallNS      int64
	visiblePS   int64
	hiddenPJ    float64
	failedCount int
}

// markWindow sleeps through the warm-up and the timed window, recording
// the window's bounds and the stack's simulated time at each edge.
func markWindow(log *runLog, win window, simPS func() int64) {
	sleepUntil(log.clk, int64(win.warm))
	log.t0, log.simPS0 = log.clk.now(), simPS()
	sleepUntil(log.clk, int64(win.warm+win.length))
	log.t1, log.simPS1 = log.clk.now(), simPS()
}

func sleepUntil(clk clock, at int64) {
	if d := at - clk.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// closedLoop runs clients goroutines, each issuing its next request when
// the previous one returns, until the timed window closes. do performs
// client c's k-th request and fills in the outcome (and, traced, the call).
func closedLoop(clk clock, clients int, win window, simPS func() int64, do func(c int, k uint64, r *reqRec)) *runLog {
	log := &runLog{clk: clk, peakInflight: int64(clients)}
	var stop atomic.Bool
	per := make([][]reqRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := uint64(0); !stop.Load(); k++ {
				r := reqRec{start: clk.now()}
				r.issued = r.start
				do(c, k, &r)
				r.done = clk.now()
				r.simAfter = simPS()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	markWindow(log, win, simPS)
	stop.Store(true)
	wg.Wait()
	for _, rs := range per {
		log.reqs = append(log.reqs, rs...)
	}
	return log
}

// maxInflight bounds the open loop's outstanding requests (and so its
// goroutines). Reaching it means the stack is far past saturation; the
// requests it refuses count as dropped.
const maxInflight = 4096

// poissonDue returns the due times (ns since base) of a seeded Poisson
// schedule at rate per second, up to end.
func poissonDue(seed int64, rate float64, end int64) []int64 {
	var due []int64
	t := 0.0
	for i := uint64(0); ; i++ {
		t += -math.Log(unit(seed, streamGap, i)) / rate * 1e9
		if int64(t) >= end {
			return due
		}
		due = append(due, int64(t))
	}
}

// openLoop issues request i at due[i] from one goroutine, whether or not
// earlier requests have returned; do runs on a goroutine of its own. A
// request's latency runs from its due time, so a generator stall shows up
// as latency of the requests it delayed.
func openLoop(clk clock, due []int64, win window, simPS func() int64, do func(i uint64, r *reqRec)) *runLog {
	log := &runLog{clk: clk, open: true, reqs: make([]reqRec, len(due))}
	marked := make(chan struct{})
	go func() {
		markWindow(log, win, simPS)
		close(marked)
	}()
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i, d := range due {
		sleepUntil(clk, d)
		r := &log.reqs[i]
		r.start, r.issued = d, clk.now()
		if inflight.Load() >= maxInflight {
			r.outcome, r.done = dropped, r.issued
			continue
		}
		if n := inflight.Add(1); n > log.peakInflight {
			log.peakInflight = n
		}
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			do(i, r)
			r.done = clk.now()
			inflight.Add(-1)
		}(uint64(i))
	}
	wg.Wait()
	<-marked
	return log
}
