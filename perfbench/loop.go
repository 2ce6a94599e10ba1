package main

import "time"

// pass is one pass over a closed-loop workload's deck.
type pass struct {
	lat []float64 // per-request latency, ms, of the requests that succeeded
	dur time.Duration
}

// closedLoopRun is what closedLoop measured.
type closedLoopRun struct {
	passes    []pass
	attempted int
	allocs    uint64 // heap bytes allocated during the loop
}

// closedLoop runs whole passes over drawn decks, one request at a time,
// until d has elapsed, so every run executes the same multiset of slots.
// do runs one request and returns its latency.
func closedLoop[R any](d time.Duration, draw func() []R, do func(R) (time.Duration, error), fails *failures) closedLoopRun {
	var run closedLoopRun
	a0 := heapAllocs()
	start := time.Now()
	for time.Since(start) < d {
		var p pass
		t0 := time.Now()
		for _, r := range draw() {
			run.attempted++
			lat, err := do(r)
			if err != nil {
				fails.add(err)
				continue
			}
			p.lat = append(p.lat, ms(lat))
		}
		p.dur = time.Since(t0)
		run.passes = append(run.passes, p)
	}
	run.allocs = heapAllocs() - a0
	return run
}

// outcome fills the workload's outcome. Each end-to-end figure is the
// median over passes of that pass's figure, so one slow pass (a noisy
// neighbour, a GC-heavy stretch) does not move it. These workloads have no
// result cache, so no request is a hit: hit_p50_ms, which every result
// carries, repeats req_p50_ms here and has no signal of its own.
func (r closedLoopRun) outcome(oc *outcome, setup float64, log *spanLog, fails *failures) *outcome {
	oc.attempted, oc.failed = r.attempted, fails.n
	if log != nil {
		oc.log = log
		oc.metrics = log.medians()
		return oc
	}
	var rate, p50, p95 []float64
	completed := 0
	for _, p := range r.passes {
		completed += len(p.lat)
		rate = append(rate, float64(len(p.lat))/p.dur.Seconds())
		p50 = append(p50, median(p.lat))
		p95 = append(p95, quantile(p.lat, 0.95))
	}
	m := oc.metrics
	m["setup_s"] = setup
	m["req_per_s"] = median(rate)
	m["req_p50_ms"] = median(p50)
	m["req_p95_ms"] = median(p95)
	m["hit_p50_ms"] = m["req_p50_ms"]
	m["alloc_mb_per_req"] = float64(r.allocs) / (1 << 20) / float64(max(completed, 1))
	m["peak_rss_mb"] = peakRSSMB()
	return oc
}
