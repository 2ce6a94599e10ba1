package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"perflow/internal/serve/journal"
	"perflow/internal/serve/store"
)

// diskStore opens a disk store over dir, failing the test on error.
func diskStore(t *testing.T, dir string) store.Store {
	t.Helper()
	st, err := store.NewDisk(dir, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJournalRecoveryCompletesAckedJob is the core crash-safety loop in
// miniature: a job is acknowledged, the process dies mid-run (Kill — no
// graceful drain, no store close), and a new server over the same journal
// and store directories re-enqueues it and runs it to completion.
func TestJournalRecoveryCompletesAckedJob(t *testing.T) {
	storeDir, jnlDir := t.TempDir(), t.TempDir()

	a := New(Options{Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir})
	// Hold the job in its run until the kill cancels it, so it cannot
	// finish (and journal its completion) before the crash.
	a.testExecHook = func(j *Job) { <-j.runParent.Done() }
	req := SubmitRequest{}
	req.DSL = slowDSL(200)
	req.Analysis = "profile"
	req.Ranks = 2
	job, err := a.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	// The accepted record is durable before Submit returns: killing right
	// now — mid-queue or mid-run — must not lose the job.
	a.Kill()

	b := New(Options{Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		b.Drain(ctx)
	}()

	rec := b.RecoveredJobs()
	if len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(rec))
	}
	if rec[0].ID != job.ID || rec[0].Key != job.Key {
		t.Fatalf("recovered job %s/%s, want %s/%s (identity must survive the crash)",
			rec[0].ID, rec[0].Key, job.ID, job.Key)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := b.Await(ctx, rec[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", v.State, v.Error)
	}
	if !v.Recovered {
		t.Error("view does not mark the job recovered")
	}

	// The completed result is durable: a third process sees it as a cache
	// hit, and the compacted journal replays nothing.
	c := New(Options{Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Drain(ctx)
	}()
	if n := len(c.RecoveredJobs()); n != 0 {
		t.Errorf("third process recovered %d jobs, want 0 (terminal record persisted)", n)
	}
	cachedJob, err := c.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := c.Await(context.Background(), cachedJob)
	if err != nil {
		t.Fatal(err)
	}
	if !cv.Cached {
		t.Error("resubmission after recovery missed the cache")
	}
}

// TestRecoveryCacheHitSkipsExecution pins the exactly-once-visible
// contract: when the crash landed between the cache write and the
// journal's terminal record, replay finds the cached result and completes
// the job without re-executing.
func TestRecoveryCacheHitSkipsExecution(t *testing.T) {
	storeDir, jnlDir := t.TempDir(), t.TempDir()

	// Compute the result once, cleanly, so it sits in the disk store.
	a := New(Options{Workers: 1, Store: diskStore(t, storeDir)})
	req := SubmitRequest{}
	req.Workload = "cg"
	req.Analysis = "profile"
	req.Ranks = 4
	req = req.withDefaults()
	job, err := a.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := a.Await(context.Background(), job); err != nil || v.State != StateDone {
		t.Fatalf("seed run: %v / %+v", err, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	a.Drain(ctx)
	cancel()

	// Hand-write the journal a crash would leave: accepted (and running),
	// no terminal record.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, _, err := journal.Open(jnlDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journal.Record{
		{Seq: 1, Job: "j-000001", Key: req.Key(), Tenant: anonymousTenant,
			State: journal.StateAccepted, UnixUS: 1, Request: reqJSON},
		{Seq: 1, Job: "j-000001", Key: req.Key(), Tenant: anonymousTenant,
			State: journal.StateRunning, Attempt: 1, UnixUS: 2},
	} {
		if err := jnl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	var executed atomic.Int64
	b := New(Options{
		Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir,
		OnExecute: func(jobID, key string) { executed.Add(1) },
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		b.Drain(ctx)
	}()

	// Completed from the cache at startup: not in the re-enqueued list,
	// registered done, never executed.
	if n := len(b.RecoveredJobs()); n != 0 {
		t.Fatalf("cache-completed job was re-enqueued (%d recovered)", n)
	}
	j, ok := b.job("j-000001")
	if !ok {
		t.Fatal("recovered job not registered")
	}
	v, err := b.Await(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Cached {
		t.Fatalf("cache-completed job = %+v, want done+cached", v)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("cache-completed job executed %d times, want 0 — duplicate execution is observable", n)
	}
}

// TestRecoveryGatesReadiness asserts /readyz answers "recovering" while
// replayed jobs are still pending and flips to ready once they finish —
// while /healthz stays 200 throughout (liveness must not restart a
// recovering server).
func TestRecoveryGatesReadiness(t *testing.T) {
	storeDir, jnlDir := t.TempDir(), t.TempDir()

	a := New(Options{Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir})
	// As in TestJournalRecoveryCompletesAckedJob: the job must not finish
	// before the kill.
	a.testExecHook = func(j *Job) { <-j.runParent.Done() }
	req := SubmitRequest{}
	req.DSL = slowDSL(500)
	req.Analysis = "profile"
	req.Ranks = 2
	if _, err := a.Submit(req, ""); err != nil {
		t.Fatal(err)
	}
	a.Kill()

	// Hold the recovered job at the execution gate so the recovering window
	// is observable regardless of how fast the job itself runs.
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	b, ts := newTestServer(t, Options{
		Workers: 1, Store: diskStore(t, storeDir), JournalDir: jnlDir,
		OnExecute: func(jobID, key string) { <-gate },
	})
	rec := b.RecoveredJobs()
	if len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(rec))
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery = %d (%s), want 503", resp.StatusCode, body)
	}
	var status map[string]string
	mustUnmarshal(t, body, &status)
	if status["status"] != "recovering" {
		t.Errorf("/readyz status = %q, want recovering", status["status"])
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during recovery = %d, want 200 (liveness)", resp.StatusCode)
	}

	close(gate)
	released = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if v, err := b.Await(ctx, rec[0]); err != nil || v.State != StateDone {
		t.Fatalf("recovered job: %v / %+v", err, v)
	}
	if resp, body := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after recovery = %d (%s), want 200", resp.StatusCode, body)
	}

	m := metricsSnapshot(t, ts)
	if got := m["jobs_recovered"].(float64); got != 1 {
		t.Errorf("jobs_recovered = %v, want 1", got)
	}
}

// TestDegradedModeServesFromFallback trips the store circuit breaker with
// an always-failing backend and asserts the server keeps completing jobs —
// marked degraded in the result, on /readyz, and in /metrics — instead of
// failing them.
func TestDegradedModeServesFromFallback(t *testing.T) {
	broken, err := store.NewChaos(store.NewMemory(1<<20), "seed=1,err=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, Store: broken, BreakerThreshold: 1, BreakerCooldown: time.Hour})

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		map[string]any{"workload": "cg", "analysis": "profile", "ranks": 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under broken store: %d: %s", resp.StatusCode, data)
	}
	v := waitTerminal(t, ts, decodeView(t, data).ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("job under broken store = %s (%s), want done via fallback", v.State, v.Error)
	}
	var result JobResult
	mustUnmarshal(t, v.Result, &result)
	if !result.Degraded {
		t.Error("result not marked degraded while the breaker is open")
	}
	if !s.breaker.Degraded() {
		t.Fatal("breaker did not trip on an always-failing backend")
	}

	if resp, body := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while degraded = %d (%s), want 503", resp.StatusCode, body)
	} else {
		var status map[string]string
		mustUnmarshal(t, body, &status)
		if status["status"] != "degraded" {
			t.Errorf("/readyz status = %q, want degraded", status["status"])
		}
	}

	// The fallback really holds the result: a resubmission is a cache hit.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		map[string]any{"workload": "cg", "analysis": "profile", "ranks": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit while degraded: %d, want 200 cache hit", resp.StatusCode)
	}
	if rv := decodeView(t, data); !rv.Cached {
		t.Error("resubmission while degraded missed the fallback")
	}

	m := metricsSnapshot(t, ts)
	if got := m["store_degraded"].(float64); got != 1 {
		t.Errorf("store_degraded = %v, want 1", got)
	}
	if got := m["breaker_trips"].(float64); got < 1 {
		t.Errorf("breaker_trips = %v, want >= 1", got)
	}
}
