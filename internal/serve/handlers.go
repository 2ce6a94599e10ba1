package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// maxBodyBytes bounds a submission body (inline DSL programs included).
const maxBodyBytes = 8 << 20

// tenantHandler is an endpoint that needs the authenticated tenant.
type tenantHandler func(w http.ResponseWriter, r *http.Request, tn *tenantState)

// withAuth resolves the calling tenant for a /v1 endpoint. With no tenants
// configured the server is open and every caller is the anonymous tenant;
// with an auth file, a missing or unknown API key is a 401 envelope.
func (s *Server) withAuth(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, ok := s.tenants.resolve(r)
		if !ok {
			writeError(w, http.StatusUnauthorized, ErrCodeUnauthorized, "missing or unknown API key")
			return
		}
		h(w, r, tn)
	}
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.withAuth(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.withAuth(s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.withAuth(s.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.withAuth(s.handleCancel))
	mux.HandleFunc("GET /v1/audit", s.withAuth(s.handleAudit))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the unified /v1 error envelope: {code, message,
// details[]}. Every non-2xx response goes through here so clients parse
// one shape and branch on machine codes.
func writeError(w http.ResponseWriter, status int, code, message string, details ...errorDetail) {
	writeJSON(w, status, apiError{Code: code, Message: message, Details: details})
}

// view renders a job (plus its result when done) under the server lock.
func (s *Server) view(j *Job, withResult bool) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j, withResult)
}

func (s *Server) viewLocked(j *Job, withResult bool) JobView {
	v := JobView{
		ID:          j.ID,
		Key:         j.Key,
		Tenant:      j.Tenant,
		State:       j.state,
		Cached:      j.cached,
		Recovered:   j.recovered,
		Error:       j.err,
		Request:     j.Req,
		SubmittedAt: j.submitted.UTC(),
	}
	if len(j.attempts) > 0 {
		v.Attempts = append([]AttemptRecord(nil), j.attempts...)
	}
	if !j.started.IsZero() {
		t := j.started.UTC()
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished.UTC()
		v.FinishedAt = &t
	}
	if withResult && j.state == StateDone && j.resultJSON != nil {
		v.Result = json.RawMessage(j.resultJSON)
	}
	return v
}

// visibleTo reports whether a tenant may see a job: with auth enabled,
// only its own jobs (other tenants' jobs answer 404, not 403, so job IDs
// leak nothing); the anonymous server sees everything.
func (s *Server) visibleTo(j *Job, tn *tenantState) bool {
	return !s.tenants.enabled || j.Tenant == tn.cfg.Name
}

// handleSubmit implements POST /v1/jobs: authenticate, validate and lint
// synchronously, serve repeat submissions straight from the shared result
// store, otherwise charge the tenant's quota and enqueue on the shard the
// content address hashes to — or push back with 429 (queue full or quota
// exhausted, distinguished by envelope code).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tn *tenantState) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: "+err.Error())
		return
	}
	req = req.withDefaults()

	// Content-addressed fast path: a hit can only exist for a request that
	// previously validated, linted clean, and ran to completion, so the
	// whole pipeline is skipped — repeat submissions are O(1), across
	// tenants and (on the disk store) across replicas and restarts.
	key := req.Key()
	if cached, ok := s.cache.Get(key); ok {
		s.m.syncCache(s.cache.Stats())
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
		view := s.viewLocked(job, true)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, view)
		return
	}
	s.m.syncCache(s.cache.Stats())

	req, diags, err := s.validate(req)
	if err != nil {
		if len(diags) > 0 {
			writeError(w, http.StatusUnprocessableEntity, ErrCodeLintRejected, err.Error(), lintDetails(diags)...)
		} else {
			writeError(w, http.StatusUnprocessableEntity, ErrCodeInvalidRequest, err.Error())
		}
		return
	}

	_, view, err := s.submit(req, tn)
	switch err {
	case nil:
		writeJSON(w, http.StatusAccepted, view)
	case ErrQueueFull:
		// Backpressure: tell the client when a slot is plausibly free
		// instead of accepting unbounded work.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds(tn.cfg.Name, key)))
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "job queue full")
	case ErrQuotaExceeded:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds(tn.cfg.Name, key)))
		writeError(w, http.StatusTooManyRequests, ErrCodeQuotaExceeded,
			fmt.Sprintf("tenant %q has %d jobs in flight (quota %d)", tn.cfg.Name, tn.cfg.Quota, tn.cfg.Quota))
	case ErrDeadlineUnmeetable:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds(tn.cfg.Name, key)))
		writeError(w, http.StatusTooManyRequests, ErrCodeDeadline,
			"queue backlog exceeds the request's timeout budget")
	case ErrDraining:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds(tn.cfg.Name, key)))
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "server draining")
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
	}
}

// retryAfterSeconds estimates how long until a queue slot frees — one
// average job latency per queued-jobs-per-worker — then spreads the answer
// over [base, 2*base] so a burst of rejected clients does not come back in
// one synchronized wave. The spread is a deterministic hash of (tenant,
// key), not a random draw: the same rejected request is always told the
// same delay, so wire-level golden tests stay byte-stable.
func (s *Server) retryAfterSeconds(tenant, key string) int {
	base := int64(s.opts.QueueDepth) / int64(s.opts.Workers)
	if base < 1 {
		base = 1
	}
	if base > 30 {
		base = 30
	}
	var h uint64 = 14695981039346656037
	for _, b := range []byte(tenant + "\x00" + key) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	n := base + int64(h%uint64(base+1))
	if n > 60 {
		n = 60
	}
	return int(n)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tn *tenantState) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok && s.visibleTo(j, tn) {
			views = append(views, s.viewLocked(j, false))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, tn *tenantState) {
	j, ok := s.job(r.PathValue("id"))
	if !ok || !s.visibleTo(j, tn) {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, s.view(j, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, tn *tenantState) {
	if j, ok := s.job(r.PathValue("id")); !ok || !s.visibleTo(j, tn) {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown job")
		return
	}
	j, found, cancelable := s.cancelJob(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown job")
		return
	}
	if !cancelable {
		writeError(w, http.StatusConflict, ErrCodeAlreadyFinished, "job already finished")
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(j, false))
}

// handleAudit implements GET /v1/audit: the audit loop's drift ledger.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request, tn *tenantState) {
	writeJSON(w, http.StatusOK, s.auditSnapshot())
}

// handleHealth is pure liveness: it answers 200 as long as the process can
// serve HTTP at all — draining, recovering and degraded included. An
// orchestrator restarting a pod on liveness failure must not kill a server
// that is merely finishing its backlog; that distinction lives on /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: whether this server should receive new
// traffic. Not ready while draining (shutting down), while journal
// recovery is still re-executing the previous process's backlog, and
// while the store circuit breaker is open (results would be served
// degraded from the in-memory fallback).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	recovering := s.recoveredPending > 0
	s.mu.Unlock()
	degraded := s.breaker.Degraded()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case recovering:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	case degraded:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "degraded"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.syncCache(s.cache.Stats())
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.m.Var().String())
}
