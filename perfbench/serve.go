package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"perflow"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/serve"
	"perflow/internal/serve/journal"
	"perflow/internal/serve/store"
)

// serve-durable: an in-process job server with the write-ahead journal and
// a disk store, under a scratch directory of the build directory, driven
// through Submit/Await. Phase one is an open loop at a fixed offered rate,
// each request timed from when it was due; phase two is a closed-loop
// saturation burst with two clients for req_per_s. Requests are small DSL
// programs at 4-16 ranks; about a third repeat an earlier program (cache
// hits) and the rest are unique (misses that journal and store a result).

const (
	// serveOpenRate is the phase-one offered rate. The burst completes 260 to
	// 340 requests/s on a 2-CPU host, two thirds of them misses, so the 40
	// misses/s offered here are about a fifth of the miss capacity. At 100
	// requests/s a neighbour slowing the host threefold overloaded the
	// server and the miss latency grew a thousandfold; at this rate it stays
	// below capacity and the latency grows with the slowdown.
	serveOpenRate = 60 // requests per second
	// serveRepeatFrac is the share of requests repeating an earlier one.
	serveRepeatFrac = 1.0 / 3
	// serveRepeatLag keeps repeats at least this many requests behind the
	// newest, so the repeated job has finished and is a cache hit.
	serveRepeatLag = 100
	// serveWorkers is the server's total worker count (one shard).
	serveWorkers = 2
	// serveClients is the burst phase's closed-loop client count.
	serveClients = 2
	// serveWindow is the open-loop window the latency figures are
	// computed over before taking their median.
	serveWindow = 4 * time.Second
	// serveSetupReps is how many times set-up is repeated for setup_s.
	serveSetupReps = 9
)

// svClass is one kind of serve request; its unique instances differ only
// in the program name, so they share a report digest.
type svClass struct {
	tmpl     string
	ranks    int
	analysis string
}

var svClasses = func() []svClass {
	var cs []svClass
	for _, t := range []string{"halo2d", "threads_contention", "gpu_overlap"} {
		for _, r := range []int{4, 8, 16} {
			for _, a := range []string{"profile", "comm", "critical", "waitstates"} {
				cs = append(cs, svClass{t, r, a})
			}
		}
	}
	for _, a := range []string{"profile", "comm", "critical", "waitstates"} {
		cs = append(cs, svClass{"pipeline", 8, a}) // shaped for exactly 8 ranks
	}
	return cs
}()

func (c svClass) id() string {
	return fmt.Sprintf("serve-durable/%s/r%d/%s", c.tmpl, c.ranks, c.analysis)
}

// request builds an instance of the class. Jobs build their PAGs on one
// goroutine (the CLI's -j 1): the server already runs jobs in parallel, one
// per worker, and the setting is outside the cache key and the report.
func (c svClass) request(program string) serve.SubmitRequest {
	var r serve.SubmitRequest
	r.DSL = renameProgram(input(c.tmpl+".pfl"), program)
	r.Analysis, r.Ranks, r.Parallelism = c.analysis, c.ranks, 1
	return r
}

func serveUniverse() []caseSpec {
	cases := make([]caseSpec, 0, len(svClasses))
	for _, c := range svClasses {
		c := c
		cases = append(cases, caseSpec{id: c.id(), exec: func(ctx context.Context) ([]byte, error) {
			return executeUntraced(ctx, c.request(c.tmpl).AnalysisRequest)
		}})
	}
	return cases
}

// svReq is one generated request.
type svReq struct {
	class  svClass
	req    serve.SubmitRequest
	key    string // the cache key, as Submit computes it
	repeat bool
	// traced marks a request of the traced half of a traced run; a repeat
	// inherits it from the request it repeats.
	traced bool
}

func newSvReq(c svClass, program string) svReq {
	r := svReq{class: c, req: c.request(program)}
	r.key = r.req.AnalysisRequest.WithDefaults().CacheKey()
	return r
}

// svGen draws the seeded request sequence. Safe for concurrent use.
type svGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seed   int64
	n      int
	issued []svReq // unique requests so far, candidates for repeats
	// trace marks every other new unique request as traced.
	trace   bool
	uniques int
}

func newSvGen(seed int64, warm []svReq) *svGen {
	return &svGen{rng: rand.New(rand.NewSource(seed)), seed: seed, issued: warm}
}

func (g *svGen) next() svReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if old := len(g.issued) - serveRepeatLag; old > 0 && g.rng.Float64() < serveRepeatFrac {
		r := g.issued[g.rng.Intn(old)]
		r.repeat = true
		return r
	}
	c := svClasses[g.rng.Intn(len(svClasses))]
	r := newSvReq(c, fmt.Sprintf("%s_s%d_%d", c.tmpl, g.seed, g.n))
	r.traced = g.trace && g.uniques%2 == 0
	g.uniques++
	g.issued = append(g.issued, r)
	return r
}

// timedStore is the tracing decorator around the server's result store. It
// times only the calls on keys registered with trace; the others pass
// straight through after one map lookup.
type timedStore struct {
	store.Store
	mu     sync.Mutex
	traced map[string]bool
	ops    []storeOp
}

func (t *timedStore) trace(key string) {
	t.mu.Lock()
	t.traced[key] = true
	t.mu.Unlock()
}

func (t *timedStore) tracing(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traced[key]
}

// calls returns the recorded calls.
func (t *timedStore) calls() []storeOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]storeOp(nil), t.ops...)
}

type storeOp struct {
	put   bool
	key   string
	start time.Time
	dur   time.Duration
	hit   bool
}

func (t *timedStore) Get(key string) ([]byte, bool, error) {
	if !t.tracing(key) {
		return t.Store.Get(key)
	}
	t0 := time.Now()
	v, ok, err := t.Store.Get(key)
	t.record(storeOp{key: key, start: t0, dur: time.Since(t0), hit: ok})
	return v, ok, err
}

func (t *timedStore) Put(key string, val []byte) error {
	if !t.tracing(key) {
		return t.Store.Put(key, val)
	}
	t0 := time.Now()
	err := t.Store.Put(key, val)
	t.record(storeOp{put: true, key: key, start: t0, dur: time.Since(t0)})
	return err
}

func (t *timedStore) record(op storeOp) {
	t.mu.Lock()
	t.ops = append(t.ops, op)
	t.mu.Unlock()
}

// svSample is one completed (or failed) request of a phase.
type svSample struct {
	r                 svReq
	job               *serve.Job
	due, call, ret    time.Time
	started, finished time.Time
	done              time.Time
	cached            bool
	rejected          bool // Submit itself failed
	err               error
}

func (s *svSample) latency() time.Duration { return s.done.Sub(s.due) }

// svServer is one server instance with its scratch directory.
type svServer struct {
	dir   string
	srv   *serve.Server
	timed *timedStore // nil when untraced
}

func startServer(workdir string, traced bool) (*svServer, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(filepath.Join(dir, "store"), 1<<30)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sv := &svServer{dir: dir}
	var st store.Store = disk
	if traced {
		sv.timed = &timedStore{Store: disk, traced: map[string]bool{}}
		st = sv.timed
	}
	sv.srv, err = serve.NewServer(serve.Options{
		Shards: 1, Workers: serveWorkers, QueueDepth: 4096, MaxJobHistory: 512,
		Store: st, JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return sv, nil
}

// stop drains the server and removes its directory.
func (sv *svServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := sv.srv.Drain(ctx)
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// warmRequests are completed during set-up, one per request class; they
// warm every template and rank count and are the first candidates for
// repeats.
func warmRequests(sv *svServer) ([]svReq, error) {
	var warm []svReq
	for i, c := range svClasses {
		r := newSvReq(c, fmt.Sprintf("warm_%d", i))
		job, err := sv.srv.Submit(r.req, "")
		if err != nil {
			return nil, err
		}
		if v, err := sv.srv.Await(context.Background(), job); err != nil || v.State != serve.StateDone {
			return nil, fmt.Errorf("warm-up %s: %v %s", c.id(), err, v.Error)
		}
		warm = append(warm, r)
	}
	return warm, nil
}

// sleepUntil sleeps until shortly before t, then spins, so requests go out
// on time instead of at the timer's wake-up jitter.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// finish awaits a submitted job, stamps its times and checks its report.
func (s *svSample) finish(sv *svServer, orc *oracle) {
	v, err := sv.srv.Await(context.Background(), s.job)
	s.done = time.Now()
	s.job = nil
	if err != nil {
		s.err = err
		return
	}
	s.cached = v.Cached
	if v.FinishedAt != nil {
		s.finished = *v.FinishedAt
	}
	if v.StartedAt != nil {
		s.started = *v.StartedAt
	}
	if v.State != serve.StateDone {
		s.err = fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
		return
	}
	var res struct {
		Report     string                    `json:"report"`
		Violations []perflow.PolicyViolation `json:"violations"`
	}
	if err := json.Unmarshal(v.Result, &res); err != nil {
		s.err = err
		return
	}
	s.err = orc.check(s.r.class.id(), outputBytes([]byte(res.Report), res.Violations))
}

// openLoop offers requests at serveOpenRate for d, each timed from its due
// time. Each request is drawn before its due time, so drawing is not part
// of its latency.
func openLoop(sv *svServer, gen *svGen, d time.Duration, orc *oracle) []*svSample {
	interval := time.Second / serveOpenRate
	var samples []*svSample
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		r := gen.next()
		if r.traced {
			sv.timed.trace(r.key)
		}
		sleepUntil(due)
		s := &svSample{r: r, due: due}
		samples = append(samples, s)
		s.call = time.Now()
		s.job, s.err = sv.srv.Submit(s.r.req, "")
		s.ret = time.Now()
		if s.err != nil {
			s.done, s.rejected = s.ret, true
			continue
		}
		if s.r.repeat {
			// A repeat is a cache hit, done when Submit returns; awaiting it
			// here keeps goroutine wake-up out of its latency.
			s.finish(sv, orc)
			continue
		}
		wg.Add(1)
		go func() { // waits, not busy: the server's workers do the work
			defer wg.Done()
			s.finish(sv, orc)
		}()
	}
	wg.Wait()
	return samples
}

// burst runs serveClients closed-loop clients for d and returns the
// completed samples and the phase's wall time.
func burst(sv *svServer, gen *svGen, d time.Duration, orc *oracle) ([]*svSample, time.Duration) {
	var mu sync.Mutex
	var samples []*svSample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				s := &svSample{r: gen.next(), due: time.Now()}
				s.call = s.due
				s.job, s.err = sv.srv.Submit(s.r.req, "")
				s.ret = time.Now()
				if s.err == nil {
					s.finish(sv, orc)
				} else {
					s.done, s.rejected = s.ret, true
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func runServeDurable(ctx context.Context, env *runEnv) (*outcome, error) {
	var sv *svServer
	var warm []svReq
	// Set-up starts a server over a fresh journal and disk store and
	// completes the warm requests. Both are fsync-bound, so it is repeated
	// serveSetupReps times and the median reported; the previous server is
	// stopped outside the timing, and the last one is kept.
	setup, err := measureSetup(serveSetupReps, func() error {
		if sv == nil {
			return nil
		}
		err := sv.stop()
		sv = nil
		return err
	}, func() error {
		var err error
		if sv, err = startServer(env.workdir, env.trace); err != nil {
			return err
		}
		warm, err = warmRequests(sv)
		return err
	})
	if sv != nil {
		defer sv.stop()
	}
	if err != nil {
		return nil, err
	}
	oc := &outcome{metrics: map[string]float64{}}
	if env.trace {
		return runServeTraced(sv, warm, env, oc)
	}
	gen := newSvGen(env.seed, warm)
	a0 := heapAllocs()
	phase1 := env.seconds * 2 / 3
	open := openLoop(sv, gen, phase1, env.oracle)
	burstStart := time.Now()
	closed, burstWall := burst(sv, gen, env.seconds-phase1, env.oracle)
	allocs := heapAllocs() - a0

	tally(oc, append(open, closed...))
	m := oc.metrics
	m["setup_s"] = setup
	openSummary(m, open, serveWindow)
	m["req_per_s"] = burstRate(closed, burstStart, burstWall)
	m["alloc_mb_per_req"] = float64(allocs) / (1 << 20) / float64(max(oc.attempted-oc.failed, 1))
	m["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "serve-durable: open loop %d req/s offered for %.1fs (%d requests), burst %d clients for %.1fs (%d requests)\n",
		serveOpenRate, phase1.Seconds(), len(open), serveClients, burstWall.Seconds(), len(closed))
	return oc, nil
}

// tally counts the samples as attempted requests and their errors as
// failures.
func tally(oc *outcome, samples []*svSample) {
	fails := &failures{prefix: "serve-durable"}
	for _, s := range samples {
		oc.attempted++
		if s.err != nil {
			fails.add(fmt.Errorf("%s: %w", s.r.class.id(), s.err))
		}
	}
	oc.failed = fails.n
}

// openSummary fills the latency metrics from the open-loop samples: each
// figure is the median over windows (by due time) of the window's figure,
// so one noisy stretch does not move it. Latencies cover executed jobs;
// hit_p50_ms covers cache hits.
func openSummary(m map[string]float64, samples []*svSample, window time.Duration) {
	if len(samples) == 0 {
		return
	}
	start := samples[0].due
	type win struct{ miss, hit []float64 }
	var wins []win
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		i := int(s.due.Sub(start) / window)
		for len(wins) <= i {
			wins = append(wins, win{})
		}
		if s.cached {
			wins[i].hit = append(wins[i].hit, ms(s.latency()))
		} else {
			wins[i].miss = append(wins[i].miss, ms(s.latency()))
		}
	}
	var p50, p95, hit []float64
	for _, w := range wins {
		if len(w.miss) > 0 {
			p50 = append(p50, median(w.miss))
			p95 = append(p95, quantile(w.miss, 0.95))
		}
		if len(w.hit) > 0 {
			hit = append(hit, median(w.hit))
		}
	}
	m["req_p50_ms"] = median(p50)
	m["req_p95_ms"] = median(p95)
	m["hit_p50_ms"] = median(hit)
}

// burstRate is the median over whole one-second windows of the burst's
// completions per second.
func burstRate(samples []*svSample, start time.Time, wall time.Duration) float64 {
	n := int(wall / time.Second)
	if n == 0 {
		return float64(len(samples)) / wall.Seconds()
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if i := int(s.done.Sub(start) / time.Second); s.err == nil && i < n {
			counts[i]++
		}
	}
	return median(counts)
}

// runServeTraced runs the open loop on a server whose store is wrapped in
// the timing decorator, with every other unique request traced: the
// decorator times only the traced requests' keys, and only their samples
// become spans. The mean miss latencies of the two interleaved halves give
// the tracing overhead, so drift of the host moves both alike.
func runServeTraced(sv *svServer, warm []svReq, env *runEnv, oc *outcome) (*outcome, error) {
	gen := newSvGen(env.seed, warm)
	gen.trace = true
	all := openLoop(sv, gen, env.seconds, env.oracle)
	metricsJSON := sv.srv.Metrics().String()
	ops := sv.timed.calls() // every job has been awaited, so every Put is in

	tally(oc, all)
	var samples, base []*svSample
	for _, s := range all {
		if s.r.traced {
			samples = append(samples, s)
		} else {
			base = append(base, s)
		}
	}
	log := newSpanLog()
	oc.log = log
	appendMS, err := traceServeSamples(log, samples, ops, env.workdir)
	if err != nil {
		return nil, err
	}
	log.costTraced, log.costUntraced = meanMissLatency(samples), meanMissLatency(base)
	m := log.medians()
	var gets, puts []float64
	var getHits int
	for _, op := range ops {
		if op.put {
			puts = append(puts, ms(op.dur))
			continue
		}
		gets = append(gets, ms(op.dur))
		if op.hit {
			getHits++
		}
	}
	m["store.get_ms"] = median(gets)
	m["store.put_ms"] = median(puts)
	if len(gets) > 0 {
		m["store.hit_ratio"] = float64(getHits) / float64(len(gets))
	}
	m["journal.append_ms"] = median(appendMS)
	var lag []float64
	rejected := 0
	for _, s := range all {
		lag = append(lag, ms(s.call.Sub(s.due)))
		if s.rejected {
			rejected++
		}
	}
	m["loadgen.lag_p95_ms"] = quantile(lag, 0.95)
	m["serve.rejected"] = float64(rejected)
	var sm struct {
		BreakerTrips float64 `json:"breaker_trips"`
	}
	if err := json.Unmarshal([]byte(metricsJSON), &sm); err == nil {
		m["serve.breaker_trips"] = sm.BreakerTrips
	}
	oc.metrics = m
	return oc, nil
}

func meanMissLatency(samples []*svSample) time.Duration {
	var sum time.Duration
	n := 0
	for _, s := range samples {
		if s.err == nil && !s.cached {
			sum += s.latency()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// traceServeSamples turns the traced phase's samples into spans. A
// request's latency splits without overlap into generator lag, the Submit
// call, queue wait, the run (started to finished) and the acknowledgement
// (finished to Await's return). The store decorator's calls are children
// of the Submit call (Get) and the run (Put). Replays on the same inputs
// split the rest: the submit-side parse and lint, and the journal records
// appended to a fresh journal on the same filesystem (accepted under
// Submit, running under the run, done under the acknowledgement). It
// returns the replayed append times.
func traceServeSamples(log *spanLog, samples []*svSample, ops []storeOp, workdir string) ([]float64, error) {
	byKey := map[string][]storeOp{}
	for _, op := range ops {
		byKey[op.key] = append(byKey[op.key], op)
	}
	opIn := func(key string, put bool, from, to time.Time) *storeOp {
		for i := range byKey[key] {
			op := &byKey[key][i]
			if op.put == put && !op.start.Before(from) && !op.start.After(to) {
				return op
			}
		}
		return nil
	}
	jdir, err := os.MkdirTemp(workdir, "journal-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	jnl, _, _, err := journal.Open(jdir)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	var appendMS []float64
	appendTimed := func(req, parent int, rec journal.Record) error {
		t0 := time.Now()
		err := jnl.Append(rec)
		d := time.Since(t0)
		appendMS = append(appendMS, ms(d))
		log.add("journal.append", req, parent, d, 0)
		return err
	}

	for _, s := range samples {
		if s.err != nil {
			continue
		}
		req := log.requests
		log.request(0, 0)
		key := s.r.key
		log.add("loadgen.lag", req, -1, s.call.Sub(s.due), 0)
		if s.cached {
			sub := log.add("serve.hit_submit", req, -1, s.ret.Sub(s.call), 0)
			if op := opIn(key, false, s.call, s.ret); op != nil {
				log.add("store.get", req, sub, op.dur, 0)
			}
			log.add("serve.hit_ack", req, -1, s.done.Sub(s.ret), 0)
			continue
		}
		sub := log.add("serve.submit", req, -1, s.ret.Sub(s.call), 0)
		if op := opIn(key, false, s.call, s.ret); op != nil {
			log.add("store.get", req, sub, op.dur, 0)
		}
		runFrom := s.started
		if runFrom.Before(s.ret) {
			runFrom = s.ret
		}
		log.add("serve.queue_wait", req, -1, runFrom.Sub(s.ret), 0)
		run := log.add("serve.run", req, -1, s.finished.Sub(runFrom), 0)
		if op := opIn(key, true, s.started, s.finished); op != nil {
			log.add("store.put", req, run, op.dur, 0)
		}
		ack := log.add("serve.ack", req, -1, s.done.Sub(s.finished), 0)

		// Replays of the submit-side validation on the same program.
		var p *ir.Program
		var perr error
		log.timed("ir.parse", req, sub, func() { p, perr = ir.ParseLenient(strings.NewReader(s.r.req.DSL)) })
		if perr != nil {
			return nil, perr
		}
		li := log.timed("lint.run", req, sub, func() { _, perr = lint.Run(p, lint.Options{}) })
		log.val("lint.alloc_kb", req, float64(log.spans[li].alloc)/1024)
		if perr != nil {
			return nil, perr
		}
		reqJSON, err := json.Marshal(s.r.req)
		if err != nil {
			return nil, err
		}
		seq := uint64(req + 1)
		rec := journal.Record{Seq: seq, Job: fmt.Sprintf("j-%06d", seq), Key: key, Tenant: "anonymous"}
		for _, step := range []struct {
			parent int
			state  string
			body   []byte
		}{{sub, journal.StateAccepted, reqJSON}, {run, journal.StateRunning, nil}, {ack, journal.StateDone, nil}} {
			r := rec
			r.State, r.Request, r.UnixUS = step.state, step.body, time.Now().UnixMicro()
			if step.state == journal.StateRunning {
				r.Attempt = 1
			}
			if err := appendTimed(req, step.parent, r); err != nil {
				return nil, err
			}
		}
	}
	// The spans cover each request's whole latency by construction; the
	// wall is their sum.
	for _, s := range log.spans {
		if s.parent < 0 {
			log.wall += s.dur
		}
	}
	return appendMS, nil
}
