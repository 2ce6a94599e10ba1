// Package serve implements the PerFlow analysis service behind the
// `pflow serve` subcommand: a long-running HTTP server that accepts DSL
// programs or named workloads plus run options, validates and lints them
// synchronously, and executes accepted jobs on a pool of worker shards.
//
// The service is multi-tenant and sharded:
//
//   - Execution is split across Options.Shards worker shards; a job's
//     shard is chosen by hashing its content address, and each shard owns
//     a bounded queue with per-tenant FIFOs drained by weighted-fair
//     round-robin, so one hot tenant cannot starve the rest.
//   - Results live behind the pluggable internal/serve/store interface
//     (in-memory LRU, or CRC-validated content-addressed disk files that
//     replicas on one host share and that survive restarts).
//   - Tenants authenticate with API keys and carry in-flight quotas and
//     fair-share weights (Options.Tenants / pflow serve -auth-file).
//   - A gatekeeper-style background audit loop re-executes a sample of
//     cached entries against the current engine and flags drift on
//     /v1/audit.
//
// The service exists because the one-shot CLI re-parses, re-lints,
// re-simulates and re-builds the PAG on every invocation; wrapping the same
// perflow.RunCtx/AnalyzeCtx pipeline in sharded queues plus a shared cache
// turns the batch tool into a serving core (cf. Pipeflow, arXiv
// 2202.00717, and the continuous-analysis argument of arXiv 2401.13150).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"perflow"
	"perflow/internal/core"
	"perflow/internal/ir"
	"perflow/internal/lint"
	"perflow/internal/serve/journal"
	"perflow/internal/serve/store"
	"perflow/internal/workloads"
)

// Options parameterizes a Server.
type Options struct {
	// Shards is the number of worker shards; jobs are routed by hashing
	// their content address (default 1).
	Shards int
	// Workers is the worker count per shard (default 4), so the total
	// execution parallelism is Shards*Workers.
	Workers int
	// QueueDepth bounds the jobs waiting in each shard's queue;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// Store is the result store; nil uses an in-memory LRU of CacheBytes.
	// The server owns the store and closes it on Drain.
	Store store.Store
	// CacheBytes is the default store's byte budget (default 64 MiB);
	// ignored when Store is set.
	CacheBytes int64
	// Tenants declares the server's tenants (API keys, quotas, fair-share
	// weights). Empty means a single anonymous tenant with no
	// authentication — the single-user development shape.
	Tenants []TenantConfig
	// AuditInterval is the period of the background audit loop
	// re-executing cached entries against the current engine; 0 disables
	// the loop (AuditOnce still works).
	AuditInterval time.Duration
	// AuditSample is how many cached entries one audit cycle re-executes
	// (default 8; cycles rotate through the key space).
	AuditSample int
	// JobTimeout caps one job's run time; request timeouts are clamped to
	// it (default 60s).
	JobTimeout time.Duration
	// MaxJobHistory bounds the finished jobs retained for GET (default
	// 4096; oldest finished jobs are forgotten first).
	MaxJobHistory int
	// MaxRanks bounds accepted rank counts (default 1024).
	MaxRanks int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// JournalDir, when set, enables the write-ahead job journal under this
	// directory: accepted jobs are durably recorded before the submission
	// is acknowledged, and a restarted server over the same directory
	// re-enqueues every job that never reached a terminal state.
	JournalDir string
	// RetryMax is the total execution attempts per job (default 3): the
	// first run plus up to RetryMax-1 retries of transient failures.
	RetryMax int
	// RetryBase is the backoff base before the first retry (default 50ms);
	// subsequent retries back off exponentially with full jitter.
	RetryBase time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 2s).
	RetryMaxDelay time.Duration
	// BreakerThreshold is how many consecutive store failures trip the
	// circuit breaker into degraded (in-memory fallback) mode (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before probing the
	// backend again (default 5s).
	BreakerCooldown time.Duration
	// OnExecute, when set, observes every job the workers actually start
	// executing (once per job, before its first attempt) — the crash
	// harness's double-execution oracle.
	OnExecute func(jobID, key string)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.AuditSample <= 0 {
		o.AuditSample = 8
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.MaxJobHistory <= 0 {
		o.MaxJobHistory = 4096
	}
	if o.MaxRanks <= 0 {
		o.MaxRanks = 1024
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// Server is the analysis service: sharded bounded job queues, per-shard
// worker pools running the perflow pipeline, a pluggable content-addressed
// result store, tenant auth/quotas, and the audit loop.
type Server struct {
	opts    Options
	cache   *resultCache
	m       *metrics
	mux     *http.ServeMux
	shards  []*shard
	tenants *tenantRegistry
	audit   *auditState

	// breaker is the circuit breaker every result store is mounted behind:
	// cache operations never fail the job path, they degrade.
	breaker *store.Breaker
	// jnl is the write-ahead job journal; nil when JournalDir is unset.
	jnl *journal.Journal

	wg          sync.WaitGroup // shard workers
	auditWG     sync.WaitGroup
	auditCancel context.CancelFunc

	baseCtx    context.Context // canceled on forced shutdown
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	seq      uint64
	jobs     map[string]*Job
	order    []string // job IDs in submission order, for listing + history bounds
	// recovered lists the jobs re-enqueued from the journal at startup;
	// recoveredPending counts those not yet terminal (readiness gates on
	// it reaching zero).
	recovered        []*Job
	recoveredPending int
	// avgRunUS is an EWMA of successful job run times, the latency
	// estimate behind deadline-budget admission control.
	avgRunUS int64

	// testExecHook, when set by tests, observes every job the workers
	// actually execute — the no-lost-no-double-run oracle of the
	// dispatcher stress tests.
	testExecHook func(*Job)
	// testExecErrHook, when set, can fail an execution attempt before the
	// engine runs: the deterministic fault source of the retry tests.
	// Called as (job, attempt); a non-nil return becomes that attempt's
	// failure.
	testExecErrHook func(*Job, int) error
}

// New builds a Server and starts its shard workers (and, when configured,
// the audit loop). Callers must Drain it when done.
func New(opts Options) *Server {
	s, err := NewServer(opts)
	if err != nil {
		// Options structs built in code (not from user config) are only
		// invalid through programmer error.
		panic(err)
	}
	return s
}

// NewServer is New with tenant-configuration errors surfaced instead of
// panicking — the path for servers built from an -auth-file.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	tenants, err := newTenantRegistry(opts.Tenants)
	if err != nil {
		return nil, err
	}
	st := opts.Store
	if st == nil {
		st = store.NewMemory(opts.CacheBytes)
	}
	// Every backend — including a caller-supplied one — is mounted behind
	// the circuit breaker: the job path never sees a store error, it sees
	// degraded mode. A backend that never fails (the default in-memory
	// store) never trips it.
	breaker := store.NewBreaker(st, store.BreakerOptions{
		Threshold: opts.BreakerThreshold,
		Cooldown:  opts.BreakerCooldown,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      newResultCache(breaker),
		m:          newMetrics(),
		tenants:    tenants,
		audit:      newAuditState(),
		breaker:    breaker,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	s.m.shards.Set(int64(opts.Shards))
	s.mux = s.routes()
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(i, opts.QueueDepth)
		for w := 0; w < opts.Workers; w++ {
			s.wg.Add(1)
			go s.shardWorker(s.shards[i])
		}
	}
	if opts.JournalDir != "" {
		jnl, incomplete, maxSeq, err := journal.Open(opts.JournalDir)
		if err != nil {
			breaker.Close()
			cancel()
			for _, sh := range s.shards {
				sh.close()
			}
			s.wg.Wait()
			return nil, err
		}
		s.jnl = jnl
		s.mu.Lock()
		if maxSeq > s.seq {
			s.seq = maxSeq // new job IDs never collide with replayed ones
		}
		s.mu.Unlock()
		s.recoverJobs(incomplete)
	}
	if opts.AuditInterval > 0 {
		auditCtx, auditCancel := context.WithCancel(context.Background())
		s.auditCancel = auditCancel
		s.auditWG.Add(1)
		go s.auditLoop(auditCtx)
	}
	return s, nil
}

// recoverJobs re-enqueues the journal's incomplete jobs. A job whose
// result already sits in the cache — the crash landed between the cache
// write and the journal's terminal record — is completed from the cache
// without re-executing, which is what makes duplicate execution
// unobservable: at-least-once under the hood, exactly-once in every
// response. The rest re-enter their shards (bypassing the depth bound:
// they were already acknowledged) and run normally.
func (s *Server) recoverJobs(incomplete []journal.Entry) {
	for _, e := range incomplete {
		var req SubmitRequest
		if err := json.Unmarshal(e.Request, &req); err != nil {
			// An undecodable request (journal written by an incompatible
			// version) cannot be re-run; record it failed so it stops
			// replaying.
			s.jnlAppend(journal.Record{Seq: e.Seq, Job: e.Job, Key: e.Key, Tenant: e.Tenant,
				State: journal.StateFailed, Err: "recovery: undecodable request", UnixUS: time.Now().UnixMicro()})
			continue
		}
		req = req.withDefaults()
		job := &Job{
			ID: e.Job, Key: e.Key, Tenant: e.Tenant, Req: req,
			recovered: true, seq: e.Seq,
			submitted: time.Now(),
			done:      make(chan struct{}),
		}
		if cached, ok := s.cache.Get(e.Key); ok {
			s.jnlAppend(journal.Record{Seq: e.Seq, Job: e.Job, Key: e.Key, Tenant: e.Tenant,
				State: journal.StateDone, UnixUS: time.Now().UnixMicro()})
			s.mu.Lock()
			job.state = StateDone
			job.cached = true
			job.resultJSON = cached
			job.finished = time.Now()
			close(job.done)
			s.registerLocked(job)
			s.m.jobsDone.Add(1)
			s.mu.Unlock()
			s.m.jobsRecovered.Add(1)
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		job.state = StateQueued
		job.cancel = cancel
		job.runParent = ctx
		sh := s.shards[shardOf(job.Key, len(s.shards))]
		job.shard = sh
		s.mu.Lock()
		if err := sh.enqueueRecovered(job); err != nil {
			s.mu.Unlock()
			cancel()
			continue // shard closed: server being torn down mid-recovery
		}
		s.registerLocked(job)
		s.recovered = append(s.recovered, job)
		s.recoveredPending++
		s.m.jobsQueued.Add(1)
		s.mu.Unlock()
		s.m.jobsRecovered.Add(1)
	}
	s.m.journalRecords.Set(s.jnl.Records())
}

// jnlAppend writes a journal record when journaling is enabled, surfacing
// the append error (a failed accepted-record append must fail the
// submission — the write-ahead contract).
func (s *Server) jnlAppend(r journal.Record) error {
	if s.jnl == nil {
		return nil
	}
	err := s.jnl.Append(r)
	s.m.journalRecords.Set(s.jnl.Records())
	return err
}

// RecoveredJobs lists the jobs re-enqueued from the journal at startup
// (cache-completed ones excluded), for the crash harness and operational
// inspection.
func (s *Server) RecoveredJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.recovered))
	copy(out, s.recovered)
	return out
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the expvar tree the /metrics endpoint renders, for
// publication in the process-global expvar registry.
func (s *Server) Metrics() interface{ String() string } { return s.m.Var() }

// Drain stops accepting jobs, stops the audit loop, lets the queued
// backlog finish, and waits for the workers — the SIGTERM path. If ctx
// expires first, the remaining jobs' contexts are canceled and Drain waits
// for the workers to observe it.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	s.mu.Unlock()

	if s.auditCancel != nil {
		s.auditCancel()
	}
	s.auditWG.Wait()
	for _, sh := range s.shards {
		sh.close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // force-cancel running jobs, then wait for them
		<-done
		err = ctx.Err()
	}
	if s.jnl != nil {
		s.jnl.Close()
	}
	s.cache.store.Close()
	return err
}

// Kill simulates an abrupt process death (SIGKILL) for the crash-restart
// harness: intake stops, the journal freezes (nothing more ever becomes
// durable), every running job's context is canceled, and the method waits
// only for the goroutines to unwind — no store close, no journal
// compaction, no breaker flush, no graceful backlog drain. Everything the
// journal and disk store had fsynced before the freeze is exactly what a
// restarted server will find.
//
// The ordering is the safety argument: intake stops under the same mutex
// that serializes journal appends, so every acknowledged submission has
// its accepted record on disk before the freeze — no acknowledged job can
// be lost.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	if s.jnl != nil {
		s.jnl.Freeze()
	}
	if s.auditCancel != nil {
		s.auditCancel()
	}
	s.baseCancel()
	for _, sh := range s.shards {
		sh.close()
	}
	s.auditWG.Wait()
	s.wg.Wait()
}

// Submission backpressure signals.
var (
	ErrQueueFull     = errors.New("serve: job queue full")
	ErrQuotaExceeded = errors.New("serve: tenant quota exhausted")
	ErrDraining      = errors.New("serve: server draining")
	// ErrDeadlineUnmeetable rejects a submission whose timeout budget the
	// current backlog cannot plausibly meet: admission control distinct
	// from the binary queue-full 429 — the queue has room, but the job
	// would only wait to time out in it.
	ErrDeadlineUnmeetable = errors.New("serve: deadline budget unmeetable at current backlog")
)

// validate normalizes and checks a request, returning the prepared request
// or a client error (and lint diagnostics when the static analyzer rejects
// the program). Request shape — program exclusivity, known analysis, scale
// ordering, parseable faults and policies — is the canonical
// perflow.AnalysisRequest contract; only server capacity limits and the
// synchronous lint gate live here.
func (s *Server) validate(req SubmitRequest) (SubmitRequest, []lint.Diagnostic, error) {
	req = req.withDefaults()
	if err := req.AnalysisRequest.Validate(); err != nil {
		return req, nil, err
	}
	if req.Ranks > s.opts.MaxRanks || req.Ranks2 > s.opts.MaxRanks {
		return req, nil, fmt.Errorf("rank count exceeds server limit %d", s.opts.MaxRanks)
	}
	if req.Threads > 256 {
		return req, nil, errors.New("threads exceeds server limit 256")
	}

	// Resolve the program and lint it synchronously: parse failures and
	// error-severity findings reject the submission up front (422), before
	// any queue slot or simulation time is spent. SkipLint only skips the
	// in-run gate; a served program must always lint clean.
	var prog *ir.Program
	if req.Workload != "" {
		p, err := workloads.Get(req.Workload)
		if err != nil {
			return req, nil, err
		}
		prog = p
	} else {
		p, err := ir.ParseLenient(strings.NewReader(req.DSL))
		if err != nil {
			return req, nil, err
		}
		prog = p
	}
	diags, err := lint.Run(prog, lint.Options{})
	if err != nil {
		return req, nil, err
	}
	if lint.HasErrors(diags) {
		return req, diags, errors.New("program rejected by static diagnostics")
	}
	return req, nil, nil
}

// submit creates a job for an already-validated request and enqueues it on
// the shard its content address hashes to, charging the tenant's quota.
// With journaling enabled, the accepted record is fsynced before the
// enqueue — the job is durable before it is runnable, so a crash at any
// point after this returns leaves a recoverable record. It also returns
// the job's view at acceptance, rendered under the same lock.
func (s *Server) submit(req SubmitRequest, tn *tenantState) (*Job, JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, JobView{}, ErrDraining
	}
	if tn.cfg.Quota > 0 && tn.inflight >= tn.cfg.Quota {
		s.m.jobsQuotaRejected.Add(1)
		s.m.tenantRejected(tn.cfg.Name)
		return nil, JobView{}, ErrQuotaExceeded
	}
	key := req.Key()
	sh := s.shards[shardOf(key, len(s.shards))]
	// Deadline-budget admission: when the client brought a timeout and the
	// shard's backlog alone is expected to eat it, reject now instead of
	// queueing work that can only time out — a slot spent waiting to fail
	// is worse than an honest 429.
	if req.TimeoutMS > 0 && s.avgRunUS > 0 {
		waitUS := int64(sh.depthNow()/s.opts.Workers) * s.avgRunUS
		if waitUS > req.TimeoutMS*1000 {
			s.m.jobsDeadlineRejected.Add(1)
			s.m.tenantRejected(tn.cfg.Name)
			return nil, JobView{}, ErrDeadlineUnmeetable
		}
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:           fmt.Sprintf("j-%06d", s.seq),
		Key:          key,
		Tenant:       tn.cfg.Name,
		Req:          req,
		seq:          s.seq,
		quotaCharged: true,
		state:        StateQueued,
		submitted:    time.Now(),
		cancel:       cancel,
		runParent:    ctx,
		done:         make(chan struct{}),
	}
	job.shard = sh
	// Write-ahead: the accepted record must be durable before the job is
	// acknowledged or runnable. An append failure fails the submission —
	// accepting a job the journal cannot replay would break the recovery
	// contract.
	if s.jnl != nil {
		reqJSON, jerr := json.Marshal(req)
		if jerr == nil {
			jerr = s.jnlAppend(journal.Record{Seq: job.seq, Job: job.ID, Key: job.Key, Tenant: job.Tenant,
				State: journal.StateAccepted, UnixUS: time.Now().UnixMicro(), Request: reqJSON})
		}
		if jerr != nil {
			cancel()
			return nil, JobView{}, fmt.Errorf("serve: journal append: %w", jerr)
		}
	}
	// Reserve the queue slot while still holding the lock, so Drain cannot
	// close the shard between the draining check above and this enqueue.
	if err := sh.enqueue(job); err != nil {
		cancel()
		// The accepted record is already durable; cancel it so the job is
		// not resurrected on the next restart.
		s.jnlAppend(journal.Record{Seq: job.seq, Job: job.ID, Key: job.Key, Tenant: job.Tenant,
			State: journal.StateCancelled, Err: "enqueue rejected", UnixUS: time.Now().UnixMicro()})
		if errors.Is(err, ErrQueueFull) {
			s.m.jobsRejected.Add(1)
			s.m.tenantRejected(tn.cfg.Name)
		}
		return nil, JobView{}, err
	}
	tn.inflight++
	s.registerLocked(job)
	s.m.jobsSubmitted.Add(1)
	s.m.jobsQueued.Add(1)
	s.m.tenantSubmitted(tn.cfg.Name)
	// Render the acceptance view before a worker can take the job: once
	// s.mu is released the job may already be running.
	return job, s.viewLocked(job, false), nil
}

// Submit validates and enqueues a request through the same path as POST
// /v1/jobs, for embedding the server in a Go program (load harnesses, the
// bench driver) without HTTP in between. tenant names the submitting
// tenant; "" means the anonymous tenant and only works when no tenants are
// configured. A repeat submission is served from the result store as an
// already-done job.
func (s *Server) Submit(req SubmitRequest, tenant string) (*Job, error) {
	if tenant == "" {
		tenant = anonymousTenant
	}
	tn, ok := s.tenants.byName[tenant]
	if !ok {
		return nil, fmt.Errorf("serve: unknown tenant %q", tenant)
	}
	req = req.withDefaults()
	key := req.Key()
	if cached, ok := s.cache.Get(key); ok {
		s.mu.Lock()
		s.seq++
		job := &Job{
			ID:         fmt.Sprintf("j-%06d", s.seq),
			Key:        key,
			Tenant:     tn.cfg.Name,
			Req:        req,
			state:      StateDone,
			cached:     true,
			resultJSON: cached,
			submitted:  time.Now(),
			finished:   time.Now(),
			done:       make(chan struct{}),
		}
		close(job.done)
		s.registerLocked(job)
		s.m.jobsDone.Add(1)
		s.m.tenantCompleted(tn.cfg.Name)
		s.mu.Unlock()
		return job, nil
	}
	req, _, err := s.validate(req)
	if err != nil {
		return nil, err
	}
	job, _, err := s.submit(req, tn)
	return job, err
}

// Await blocks until the job is terminal (or ctx expires) and returns its
// final view, result included.
func (s *Server) Await(ctx context.Context, j *Job) (JobView, error) {
	select {
	case <-j.done:
		return s.view(j, true), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// registerLocked records the job and enforces the finished-history bound.
// Caller holds s.mu.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.opts.MaxJobHistory {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			if old != nil && old.terminalLocked() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is still pending/running
		}
	}
}

// job returns a job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job. A queued job is removed from
// its shard's queue outright — the slot frees immediately and the job can
// never run. It returns the job, whether it was found, and whether it was
// still cancelable.
func (s *Server) cancelJob(id string) (*Job, bool, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false, false
	}
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		s.mu.Unlock()
		return j, true, false
	case StateQueued:
		if j.shard.remove(j) {
			// Really out of the queue: terminal now, quota slot freed.
			j.state = StateCanceled
			j.err = "canceled before start"
			j.finished = time.Now()
			close(j.done)
			s.releaseTenantLocked(j)
			if j.recovered && s.recoveredPending > 0 {
				s.recoveredPending--
			}
			s.jnlAppend(journal.Record{Seq: j.seq, Job: j.ID, Key: j.Key, Tenant: j.Tenant,
				State: journal.StateCancelled, Err: j.err, UnixUS: time.Now().UnixMicro()})
			s.m.jobsQueued.Add(-1)
			s.m.jobsCanceled.Add(1)
		}
		// If remove lost the race with a worker's dequeue, the job is
		// effectively running: fall through to context cancellation and
		// let the worker record the terminal state.
	case StateRunning:
		// The run context unwinds inside perflow.RunCtx; the worker
		// records the terminal state.
	}
	cancel := j.cancel
	s.mu.Unlock()
	cancel()
	return j, true, true
}

// releaseTenantLocked frees a terminal job's quota slot. Caller holds s.mu.
// Jobs that never charged a slot (journal-recovered ones) must not free
// someone else's.
func (s *Server) releaseTenantLocked(j *Job) {
	if !j.quotaCharged {
		return
	}
	j.quotaCharged = false
	if tn, ok := s.tenants.byName[j.Tenant]; ok && tn.inflight > 0 {
		tn.inflight--
	}
}

// shardWorker is one worker goroutine bound to a shard: it drains that
// shard's queue with weighted-fair tenant selection until close.
func (s *Server) shardWorker(sh *shard) {
	defer s.wg.Done()
	for {
		job, ok := sh.dequeue(s.tenants.weightOf)
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob executes one dequeued job end to end, retrying transient
// failures and timeouts with capped exponential backoff (full jitter,
// deterministic from the job's content address). Only failed attempts
// leave records: a job that succeeds first try carries no retry history,
// so its cached bytes are identical with or without the retry engine.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		job.cancel()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	s.m.jobsQueued.Add(-1)
	s.m.jobsRunning.Add(1)
	hook := s.testExecHook
	errHook := s.testExecErrHook
	s.mu.Unlock()
	if hook != nil {
		hook(job)
	}
	if s.opts.OnExecute != nil {
		s.opts.OnExecute(job.ID, job.Key)
	}

	timeout := s.opts.JobTimeout
	if job.Req.TimeoutMS > 0 {
		if d := time.Duration(job.Req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	var resultJSON []byte
	var err error
	for attempt := 1; ; attempt++ {
		s.jnlAppend(journal.Record{Seq: job.seq, Job: job.ID, Key: job.Key, Tenant: job.Tenant,
			State: journal.StateRunning, Attempt: attempt, UnixUS: time.Now().UnixMicro()})
		attemptStart := time.Now()
		ctx, cancel := context.WithTimeout(job.runParent, timeout)
		if errHook != nil {
			if herr := errHook(job, attempt); herr != nil {
				resultJSON, err = nil, herr
			} else {
				resultJSON, err = s.execute(ctx, job.Req)
			}
		} else {
			resultJSON, err = s.execute(ctx, job.Req)
		}
		cancel()
		if err == nil {
			break
		}
		class := classify(err)
		rec := AttemptRecord{
			Attempt: attempt, Class: string(class), Error: err.Error(),
			ElapsedUS: time.Since(attemptStart).Microseconds(),
		}
		if !class.retryable() || attempt >= s.opts.RetryMax || job.runParent.Err() != nil {
			s.mu.Lock()
			job.attempts = append(job.attempts, rec)
			s.mu.Unlock()
			break
		}
		delay := backoffDelay(job.Key, attempt, s.opts.RetryBase, s.opts.RetryMaxDelay)
		rec.BackoffUS = delay.Microseconds()
		s.mu.Lock()
		job.attempts = append(job.attempts, rec)
		s.mu.Unlock()
		s.m.jobsRetried.Add(1)
		select {
		case <-job.runParent.Done():
			err = job.runParent.Err()
		case <-time.After(delay):
			continue
		}
		break // canceled during backoff
	}
	job.cancel()

	// Embed the retry history and degraded flag into the result before it
	// is cached, so they ride with it into repeat submissions. The audit
	// loop's drift comparison ignores both fields.
	degraded := s.breaker.Degraded()
	s.mu.Lock()
	attempts := append([]AttemptRecord(nil), job.attempts...)
	s.mu.Unlock()
	if err == nil && (len(attempts) > 0 || degraded) {
		var r JobResult
		if uerr := json.Unmarshal(resultJSON, &r); uerr == nil {
			r.Attempts = attempts
			r.Degraded = degraded
			if b, merr := marshalResult(&r); merr == nil {
				resultJSON = b
			}
		}
	}

	// Persist before acknowledging: once a client can observe StateDone,
	// an equivalent resubmission must hit the cache (and, on the disk
	// store, survive a restart). The circuit breaker guarantees the Put
	// cannot fail — at worst the result lands in the in-memory fallback
	// and the job is marked degraded.
	if err == nil {
		s.cache.Put(job.Key, job.Req.AnalysisRequest, resultJSON)
	}

	// Journal the terminal state after the cache write: a crash between
	// the two replays the job on restart, finds the cached result, and
	// completes it without re-executing — closing the duplicate-execution
	// window that makes results exactly-once visible.
	finished := time.Now()
	var finState State
	var finErr string
	switch {
	case err == nil:
		finState = StateDone
	case errors.Is(err, context.Canceled):
		finState, finErr = StateCanceled, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		finState, finErr = StateFailed, fmt.Sprintf("timed out after %s", timeout)
	default:
		finState, finErr = StateFailed, err.Error()
	}
	jnlState := map[State]string{
		StateDone: journal.StateDone, StateFailed: journal.StateFailed, StateCanceled: journal.StateCancelled,
	}[finState]
	s.jnlAppend(journal.Record{Seq: job.seq, Job: job.ID, Key: job.Key, Tenant: job.Tenant,
		State: jnlState, Err: finErr, UnixUS: finished.UnixMicro()})

	s.mu.Lock()
	job.finished = finished
	s.m.jobsRunning.Add(-1)
	job.state = finState
	job.err = finErr
	switch finState {
	case StateDone:
		job.resultJSON = resultJSON
		s.m.jobsDone.Add(1)
		s.m.tenantCompleted(job.Tenant)
		s.m.ObserveLatency(job.Req.Analysis, job.finished.Sub(job.started))
		// Fold the run into the admission-control latency estimate.
		runUS := job.finished.Sub(job.started).Microseconds()
		if s.avgRunUS == 0 {
			s.avgRunUS = runUS
		} else {
			s.avgRunUS = (7*s.avgRunUS + runUS) / 8
		}
	case StateCanceled:
		s.m.jobsCanceled.Add(1)
	default:
		s.m.jobsFailed.Add(1)
	}
	if job.recovered && s.recoveredPending > 0 {
		s.recoveredPending--
	}
	s.releaseTenantLocked(job)
	close(job.done)
	s.mu.Unlock()

	s.m.syncCache(s.cache.Stats())
	s.m.breakerTrips.Set(s.breaker.Trips())
}

// execute runs the request through the canonical perflow.ExecuteRequest
// dispatcher — the exact pipeline the CLI and `pflow gate` use — so the
// report bytes match a CLI invocation with the same options, and policy
// violations ride in the result.
//
// A panic anywhere in the pipeline (including user-registered analyses) is
// converted into a failed job instead of killing the worker goroutine — one
// bad job must never take the server down.
func (s *Server) execute(ctx context.Context, req SubmitRequest) (resultJSON []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resultJSON, err = nil, fmt.Errorf("analysis panicked: %v", r)
		}
	}()
	pf := perflow.New()
	started := time.Now()

	// Predict never inlines into a served report: the option is excluded
	// from the cache key, so the Report bytes must not depend on it. The
	// section is delivered through JobResult.Prediction instead, computed
	// for every job from key fields only.
	req.Predict = false

	var report bytes.Buffer
	outcome, err := pf.ExecuteRequest(ctx, req.AnalysisRequest, &report)
	if err != nil {
		return nil, err
	}
	result := &JobResult{
		Report:     report.String(),
		Trace:      core.BuildJSONTrace(pf.LastTrace),
		ElapsedUS:  time.Since(started).Microseconds(),
		Diff:       outcome.Diff,
		GateFailed: outcome.GateFailed,
	}
	result.Violations = outcome.Violations
	if result.Violations == nil {
		result.Violations = []perflow.PolicyViolation{}
	}
	if outcome.Prediction != nil {
		var pb bytes.Buffer
		outcome.Prediction.WriteComparison(&pb, outcome.Result)
		result.Prediction = pb.String()
	}
	if outcome.Set != nil {
		result.Sets = append(result.Sets, core.BuildJSONReport(req.Analysis, outcome.Set))
	}
	return marshalResult(result)
}
