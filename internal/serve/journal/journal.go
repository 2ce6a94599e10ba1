// Package journal implements the serve layer's write-ahead job journal:
// an append-only, CRC-framed, fsync-durable log of job state transitions.
// A server appends an "accepted" record before acknowledging a submission
// and a terminal record ("done", "failed", "cancelled") when the job
// finishes; a restarted server replays the journal and re-enqueues every
// job that was accepted but never reached a terminal state.
//
// Combined with the content-addressed result cache this gives
// at-least-once execution with exactly-once visible results: a recovered
// job whose result already landed in the cache (the crash hit between the
// cache write and the journal's terminal record) is completed from the
// cache without re-executing; one that never finished is re-executed, and
// because results are keyed by content address, a duplicate execution is
// observationally idempotent.
//
// On-disk format (journal.wal): an internal/frame file with magic "PFJ1",
// version 1, and one record per transition whose payload is the JSON
// Record. These bytes are the format's contract: a journal written by one
// version of the server replays under the next.
//
// Every append is fsynced before returning, so an acknowledged submission
// survives power loss. A torn tail (crash mid-append) fails its CRC or
// length check and the next open's compaction drops it — everything before
// it replays intact, which is exactly the write-ahead contract: the
// journal never acknowledges what it cannot replay.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"perflow/internal/frame"
)

// States a record can carry. Accepted marks intake; the other three are
// terminal. Running is informational (it tightens what "incomplete" means
// in diagnostics) — recovery treats accepted and running the same way.
const (
	StateAccepted  = "accepted"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Record is one journal entry: a job transitioning to State.
type Record struct {
	// Seq is the server's job sequence number; recovery resumes numbering
	// above the highest replayed Seq so job IDs never collide across a
	// restart.
	Seq uint64 `json:"seq"`
	// Job is the job ID ("job-<seq>").
	Job string `json:"job"`
	// Key is the job's content-address cache key.
	Key string `json:"key"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Attempt is the execution attempt the transition belongs to (0-based;
	// meaningful on running/failed records).
	Attempt int `json:"attempt,omitempty"`
	// Err carries the failure detail on failed/cancelled records.
	Err string `json:"err,omitempty"`
	// UnixUS is the transition time in Unix microseconds.
	UnixUS int64 `json:"unix_us"`
	// Request is the original submission body, kept on accepted records so
	// recovery can re-enqueue without any other source of truth.
	Request json.RawMessage `json:"request,omitempty"`
}

// Entry is an incomplete job surfaced by recovery: accepted (possibly
// running) with no terminal record.
type Entry struct {
	Seq     uint64
	Job     string
	Key     string
	Tenant  string
	Request json.RawMessage
}

var walMagic = [4]byte{'P', 'F', 'J', '1'}

const (
	walVersion = 1
	walName    = "journal.wal"
)

// Journal is an open write-ahead job journal. Appends are serialized and
// fsync-durable. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	frozen bool
	// records counts appends over the journal's lifetime (including
	// compaction rewrites), for /metrics.
	records int64
}

// Open replays (creating if needed) the journal under dir and compacts it,
// after sweeping the temp files a crash mid-compaction left behind:
// jobs with terminal records are dropped, and each incomplete job is
// rewritten as a single accepted record preserving its original Seq and
// Request. It returns the open journal, the incomplete jobs in Seq order,
// and the highest Seq ever seen (0 when the journal was empty) so the
// server can resume its job numbering above it.
func Open(dir string) (*Journal, []Entry, uint64, error) {
	frame.SweepTemp(dir)
	path := filepath.Join(dir, walName)
	recs, err := replay(path)
	if err != nil {
		return nil, nil, 0, err
	}

	// Fold the replayed transitions into per-job outcomes.
	type jobState struct {
		entry    Entry
		terminal bool
	}
	jobs := make(map[string]*jobState)
	var maxSeq uint64
	for _, r := range recs {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		js := jobs[r.Job]
		if js == nil {
			js = &jobState{}
			jobs[r.Job] = js
		}
		switch r.State {
		case StateAccepted:
			js.entry = Entry{Seq: r.Seq, Job: r.Job, Key: r.Key, Tenant: r.Tenant, Request: r.Request}
		case StateDone, StateFailed, StateCancelled:
			js.terminal = true
		}
	}
	var incomplete []Entry
	for _, js := range jobs {
		if !js.terminal && js.entry.Job != "" {
			incomplete = append(incomplete, js.entry)
		}
	}
	sort.Slice(incomplete, func(i, j int) bool { return incomplete[i].Seq < incomplete[j].Seq })

	// Compact: durably rewrite the log as just the incomplete jobs'
	// accepted records, then reopen it for appending.
	buf := frame.AppendHeader(nil, walMagic, walVersion)
	for _, e := range incomplete {
		payload, err := json.Marshal(Record{Seq: e.Seq, Job: e.Job, Key: e.Key, Tenant: e.Tenant, State: StateAccepted, Request: e.Request})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("journal: marshal: %w", err)
		}
		buf = frame.AppendRecord(buf, payload)
	}
	if err := frame.WriteFile(path, buf); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: rewrite: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: reopen: %w", err)
	}
	return &Journal{f: f, records: int64(len(incomplete))}, incomplete, maxSeq, nil
}

// replay reads every intact record from path, stopping at the first torn
// or corrupt one; the compaction that follows drops the tail. A missing
// file is an empty journal.
func replay(path string) ([]Record, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	body, err := frame.ReadHeader(buf, walMagic, walVersion)
	if err == frame.ErrShort {
		// Even the header is torn: treat as empty, rewrite will fix it.
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %s is not a v%d journal", path, walVersion)
	}
	var recs []Record
	rd := frame.NewReader(body)
	for {
		payload, err := rd.Next()
		if err != nil {
			break // clean end, torn tail or corrupt record: nothing after it is trusted
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Append durably writes one record: the call does not return success until
// the bytes are fsynced. On a frozen journal it silently drops the record
// — that is the simulated-SIGKILL boundary, where a real process would
// already be dead.
func (j *Journal) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	buf := frame.AppendRecord(make([]byte, 0, frame.RecordHeaderLen+len(payload)), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen || j.f == nil {
		return nil
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.records++
	return nil
}

// Freeze makes every subsequent Append a silent no-op without closing the
// file handle's past writes. It simulates the instant of a SIGKILL for the
// crash harness: whatever was appended is durable, nothing else ever will
// be, and no cleanup runs.
func (j *Journal) Freeze() {
	j.mu.Lock()
	j.frozen = true
	j.mu.Unlock()
}

// Records reports how many records this journal has written (appends plus
// compaction rewrites).
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close syncs and closes the journal file. Appends after Close are
// dropped like a frozen journal's.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
