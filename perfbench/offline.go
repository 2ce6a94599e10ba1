package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"perflow"
)

// offline-analysis: the analyst loop of the paper (-load-pag, the REPL,
// composed passes). Set-up collects a dozen results once; then a closed
// loop with one client applies a seeded draw of analyses to them with
// (*PerFlow).AnalyzeCtx, reports going to a buffer. No simulation runs
// inside the loop: the core engine and the graph layer do the work.

// olResult is one collected result of the set-up.
type olResult struct {
	id       string
	prog     string // built-in workload, or "dsl:<name>"
	ranks    int
	threads  int
	parallel bool // collect the parallel view too
}

var olResults = []olResult{
	{id: "cg-r8", prog: "cg", ranks: 8, parallel: true},
	{id: "cg-r64", prog: "cg", ranks: 64, parallel: true},
	{id: "cg-r256", prog: "cg", ranks: 256, parallel: true},
	{id: "zeusmp-r8", prog: "zeusmp", ranks: 8, parallel: true},
	{id: "zeusmp-r64", prog: "zeusmp", ranks: 64, parallel: true},
	{id: "zeusmp-r256", prog: "zeusmp", ranks: 256},
	{id: "lammps-r64", prog: "lammps", ranks: 64},
	{id: "vite-r8t4", prog: "vite", ranks: 8, threads: 4, parallel: true},
	{id: "halo2d-r64", prog: "dsl:halo2d", ranks: 64, parallel: true},
	{id: "threads-r8", prog: "dsl:threads_contention", ranks: 8, parallel: true},
	{id: "ep-r64", prog: "ep", ranks: 64},
	{id: "is-r256", prog: "is", ranks: 256},
}

// olSlot is one deck entry: an analysis over a result (and, for two-scale
// analyses, a larger result of the same program).
type olSlot struct {
	analysis    string
	result      string
	large       string
	topVariants []int
}

// olDeck puts the four small top-down analyses on every result, and the
// parallel-view analyses (critical path, contention, scalability) on a
// minority of slots. Its slot count is odd, so a pass's median latency is
// one slot's, not the midpoint of two.
var olDeck = func() []olSlot {
	var deck []olSlot
	for _, r := range olResults {
		for _, a := range []string{"comm", "profile", "hotspot", "waitstates"} {
			s := olSlot{analysis: a, result: r.id}
			if a == "hotspot" {
				s.topVariants = []int{5, 10, 20}
			}
			deck = append(deck, s)
		}
	}
	for _, id := range []string{"cg-r8", "cg-r64", "zeusmp-r8", "zeusmp-r64", "halo2d-r64", "vite-r8t4", "threads-r8"} {
		deck = append(deck, olSlot{analysis: "critical", result: id})
	}
	deck = append(deck,
		olSlot{analysis: "contention", result: "threads-r8"},
		olSlot{analysis: "contention", result: "halo2d-r64"},
		olSlot{analysis: "scalability", result: "zeusmp-r8", large: "zeusmp-r64"},
		olSlot{analysis: "scalability", result: "cg-r64", large: "cg-r256"},
	)
	return deck
}()

func (s olSlot) tops() []int {
	if len(s.topVariants) == 0 {
		return []int{10} // the request default
	}
	return s.topVariants
}

func (s olSlot) id(top int) string {
	id := "offline-analysis/" + s.result
	if s.large != "" {
		id += "+" + s.large
	}
	id += "/" + s.analysis
	if len(s.topVariants) > 0 {
		id += fmt.Sprintf("/top%d", top)
	}
	return id
}

// olRequest is one drawn request of the deck.
type olRequest struct {
	id       string
	analysis string
	res      *perflow.Result
	large    *perflow.Result
	top      int
}

// collectOffline collects every result of the set-up through the same run
// path ExecuteRequest uses (lint gate, hybrid collection).
func collectOffline(ctx context.Context) (map[string]*perflow.Result, error) {
	out := make(map[string]*perflow.Result, len(olResults))
	for _, r := range olResults {
		res, err := r.collect(ctx)
		if err != nil {
			return nil, fmt.Errorf("collect %s: %w", r.id, err)
		}
		out[r.id] = res
	}
	return out, nil
}

func (r olResult) collect(ctx context.Context) (*perflow.Result, error) {
	opts := perflow.RunOptions{Ranks: r.ranks, Threads: r.threads, SkipParallelView: !r.parallel}
	if name, ok := strings.CutPrefix(r.prog, "dsl:"); ok {
		return perflow.New().RunDSLCtx(ctx, strings.NewReader(input(name+".pfl")), opts)
	}
	return perflow.New().RunWorkloadCtx(ctx, r.prog, opts)
}

func (s olSlot) request(results map[string]*perflow.Result, top int) olRequest {
	return olRequest{id: s.id(top), analysis: s.analysis, res: results[s.result], large: results[s.large], top: top}
}

func drawOfflinePass(rng *rand.Rand, results map[string]*perflow.Result) []olRequest {
	out := make([]olRequest, 0, len(olDeck))
	for _, i := range rng.Perm(len(olDeck)) {
		s := olDeck[i]
		tv := s.tops()
		out = append(out, s.request(results, tv[rng.Intn(len(tv))]))
	}
	return out
}

func offlineUniverse() []caseSpec {
	var results map[string]*perflow.Result
	var cases []caseSpec
	for _, s := range olDeck {
		for _, top := range s.tops() {
			s, top := s, top
			cases = append(cases, caseSpec{id: s.id(top), exec: func(ctx context.Context) ([]byte, error) {
				if results == nil {
					var err error
					if results, err = collectOffline(ctx); err != nil {
						return nil, err
					}
				}
				return analyzeUntraced(ctx, s.request(results, top))
			}})
		}
	}
	return cases
}

func analyzeUntraced(ctx context.Context, rq olRequest) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := perflow.New().AnalyzeCtx(ctx, rq.res, rq.large, rq.analysis, rq.top, &buf); err != nil {
		return nil, err
	}
	return outputBytes(buf.Bytes(), nil), nil
}

func runOffline(ctx context.Context, env *runEnv) (*outcome, error) {
	rng := rand.New(rand.NewSource(env.seed))
	var results map[string]*perflow.Result
	setup, err := measureSetup(3, nil, func() error {
		results = nil
		var err error
		results, err = collectOffline(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Warm-up, untimed: one pass over the deck.
	for _, rq := range drawOfflinePass(rand.New(rand.NewSource(0)), results) {
		if _, err := analyzeUntraced(ctx, rq); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", rq.id, err)
		}
	}
	oc := &outcome{metrics: map[string]float64{}}
	var log *spanLog
	if env.trace {
		log = newSpanLog()
	}
	fails := &failures{prefix: "offline-analysis"}
	cl := closedLoop(env.seconds, func() []olRequest { return drawOfflinePass(rng, results) },
		func(rq olRequest) (time.Duration, error) {
			var err error
			if log != nil {
				err = tracedAnalyzePair(ctx, log, rq, env.oracle)
				return 0, wrapID(rq.id, err)
			}
			var buf bytes.Buffer
			t0 := time.Now()
			_, err = perflow.New().AnalyzeCtx(ctx, rq.res, rq.large, rq.analysis, rq.top, &buf)
			d := time.Since(t0)
			if err == nil {
				err = env.oracle.check(rq.id, outputBytes(buf.Bytes(), nil))
			}
			return d, wrapID(rq.id, err)
		}, fails)
	return cl.outcome(oc, setup, log, fails), nil
}

func wrapID(id string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", id, err)
}

// tracedAnalyzePair runs one analysis untraced and traced, alternating the
// order, and requires byte-equal reports that match the oracle.
func tracedAnalyzePair(ctx context.Context, log *spanLog, rq olRequest, orc *oracle) error {
	req := log.requests
	var untraced, traced []byte
	var du, dt time.Duration
	var errU, errT error
	runU := func() {
		t0 := time.Now()
		untraced, errU = analyzeUntraced(ctx, rq)
		du = time.Since(t0)
	}
	runT := func() {
		var buf countingWriter
		var out bytes.Buffer
		buf.w = &out
		pf := perflow.New()
		t0 := time.Now()
		analyze := log.timed("core.analyze", req, -1, func() {
			_, errT = pf.AnalyzeCtx(ctx, rq.res, rq.large, rq.analysis, rq.top, &buf)
		})
		dt = time.Since(t0)
		recordAnalysis(log, req, analyze, rq.analysis, pf.LastTrace, buf.n)
		traced = outputBytes(out.Bytes(), nil)
	}
	if req%2 == 0 {
		runU()
		runT()
	} else {
		runT()
		runU()
	}
	log.request(dt, du)
	if errU != nil {
		return errU
	}
	if errT != nil {
		return fmt.Errorf("traced: %w", errT)
	}
	if !bytes.Equal(untraced, traced) {
		return fmt.Errorf("traced and untraced reports differ")
	}
	return orc.check(rq.id, traced)
}
