package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perflow/internal/frame"
)

func mustOpen(t *testing.T, dir string) (*Journal, []Entry, uint64) {
	t.Helper()
	j, inc, maxSeq, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, inc, maxSeq
}

func accepted(seq uint64, req string) Record {
	return Record{
		Seq: seq, Job: fmt.Sprintf("job-%d", seq), Key: fmt.Sprintf("key-%d", seq),
		Tenant: "default", State: StateAccepted, UnixUS: int64(seq) * 1000,
		Request: json.RawMessage(req),
	}
}

func terminal(seq uint64, state string) Record {
	return Record{Seq: seq, Job: fmt.Sprintf("job-%d", seq), Key: fmt.Sprintf("key-%d", seq), State: state}
}

// TestJournalRoundTrip pins the basic write-ahead contract: accepted jobs
// without terminal records come back from a reopen, finished jobs do not.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, inc, maxSeq := mustOpen(t, dir)
	if len(inc) != 0 || maxSeq != 0 {
		t.Fatalf("fresh journal replayed %d entries, maxSeq %d", len(inc), maxSeq)
	}
	j.Append(accepted(1, `{"a":1}`))
	j.Append(accepted(2, `{"b":2}`))
	j.Append(accepted(3, `{"c":3}`))
	j.Append(Record{Seq: 2, Job: "job-2", Key: "key-2", State: StateRunning})
	j.Append(terminal(1, StateDone))
	j.Append(terminal(3, StateCancelled))
	j.Close()

	j2, inc, maxSeq := mustOpen(t, dir)
	defer j2.Close()
	if maxSeq != 3 {
		t.Errorf("maxSeq = %d, want 3", maxSeq)
	}
	if len(inc) != 1 {
		t.Fatalf("incomplete = %d jobs, want 1 (only job-2)", len(inc))
	}
	e := inc[0]
	if e.Job != "job-2" || e.Key != "key-2" || e.Tenant != "default" || e.Seq != 2 {
		t.Errorf("recovered entry = %+v", e)
	}
	if string(e.Request) != `{"b":2}` {
		t.Errorf("recovered request = %s", e.Request)
	}
}

// TestJournalTornTailTruncated appends records, then tears the tail the
// way a crash mid-append would, cutting at every offset inside the last
// record, and checks replay keeps everything before the tear and drops the
// tear itself.
func TestJournalTornTailTruncated(t *testing.T) {
	last, err := json.Marshal(accepted(2, `{"b":2}`))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= frame.RecordHeaderLen+len(last); cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			j, _, _ := mustOpen(t, dir)
			j.Append(accepted(1, `{"a":1}`))
			j.Append(accepted(2, `{"b":2}`))
			j.Close()

			// Tear the file: chop `cut` bytes off the end, leaving record 2's
			// header or payload incomplete.
			path := filepath.Join(dir, walName)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf[:len(buf)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			j2, inc, maxSeq := mustOpen(t, dir)
			defer j2.Close()
			if len(inc) != 1 || inc[0].Job != "job-1" {
				t.Fatalf("after tear: incomplete = %+v, want just job-1", inc)
			}
			if maxSeq != 1 {
				t.Errorf("maxSeq = %d, want 1", maxSeq)
			}
			// The journal stays appendable after recovery from a tear.
			j2.Append(accepted(5, `{}`))
			j2.Close()
			j3, inc, _ := mustOpen(t, dir)
			defer j3.Close()
			if len(inc) != 2 {
				t.Errorf("post-tear append lost: incomplete = %+v", inc)
			}
		})
	}
}

// TestJournalCorruptMiddleStopsReplay flips a byte in the middle record's
// payload: replay must keep records before the corruption and distrust
// everything after it.
func TestJournalCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	j.Append(accepted(1, `{"a":1}`))
	j.Append(accepted(2, `{"b":2}`))
	j.Append(accepted(3, `{"c":3}`))
	j.Close()

	path := filepath.Join(dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, inc, _ := mustOpen(t, dir)
	defer j2.Close()
	if len(inc) == 0 || len(inc) >= 3 {
		t.Fatalf("after mid-file corruption: %d incomplete, want 1 or 2 (prefix only)", len(inc))
	}
	for _, e := range inc {
		if e.Job == "" || e.Key == "" {
			t.Errorf("corrupted replay surfaced a partial entry: %+v", e)
		}
	}
}

// TestJournalCompaction checks a reopen rewrites the log down to just the
// incomplete jobs: the file stops growing with completed history.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	for seq := uint64(1); seq <= 50; seq++ {
		j.Append(accepted(seq, `{"x":1}`))
		if seq != 25 {
			j.Append(terminal(seq, StateDone))
		}
	}
	j.Close()
	path := filepath.Join(dir, walName)
	before, _ := os.Stat(path)

	j2, inc, maxSeq := mustOpen(t, dir)
	defer j2.Close()
	if len(inc) != 1 || inc[0].Seq != 25 {
		t.Fatalf("incomplete = %+v, want just seq 25", inc)
	}
	if maxSeq != 50 {
		t.Errorf("maxSeq = %d, want 50", maxSeq)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size()/10 {
		t.Errorf("compaction barely shrank the log: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestJournalFreezeDropsAppends pins the simulated-SIGKILL boundary:
// appends after Freeze are silently dropped, appends before it replay.
func TestJournalFreezeDropsAppends(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	j.Append(accepted(1, `{}`))
	j.Freeze()
	if err := j.Append(terminal(1, StateDone)); err != nil {
		t.Fatalf("frozen append errored: %v", err)
	}
	j.Append(accepted(2, `{}`))

	j2, inc, _ := mustOpen(t, dir)
	defer j2.Close()
	if len(inc) != 1 || inc[0].Job != "job-1" {
		t.Errorf("after freeze: incomplete = %+v, want job-1 still open", inc)
	}
}

// TestJournalSeqOrdering checks recovery returns incomplete jobs sorted by
// sequence, regardless of append interleaving.
func TestJournalSeqOrdering(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	for _, seq := range []uint64{5, 2, 9, 1, 7} {
		j.Append(accepted(seq, `{}`))
	}
	j.Close()
	j2, inc, _ := mustOpen(t, dir)
	defer j2.Close()
	want := []uint64{1, 2, 5, 7, 9}
	if len(inc) != len(want) {
		t.Fatalf("incomplete = %d jobs, want %d", len(inc), len(want))
	}
	for i, e := range inc {
		if e.Seq != want[i] {
			t.Errorf("position %d: seq %d, want %d", i, e.Seq, want[i])
		}
	}
}

// TestJournalEmptyAndHeaderOnly checks edge files: zero-byte and
// header-only journals open cleanly as empty.
func TestJournalEmptyAndHeaderOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, inc, _ := mustOpen(t, dir)
	if len(inc) != 0 {
		t.Errorf("zero-byte journal replayed %d entries", len(inc))
	}
	j.Append(accepted(1, `{}`))
	j.Close()
	j2, inc, _ := mustOpen(t, dir)
	defer j2.Close()
	if len(inc) != 1 {
		t.Errorf("append after zero-byte open lost: %+v", inc)
	}
}

// TestJournalWrongMagicRejected checks a foreign file is refused rather
// than silently treated as empty (which would drop real state on rewrite).
func TestJournalWrongMagicRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, []byte("NOTAJOURNALFILE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); err == nil {
		t.Fatal("foreign file accepted as journal")
	}
}

// TestJournalSweepsStrandedTemp plants the temp file a crash mid-compaction
// strands: the next open removes it and replays the journal as before.
func TestJournalSweepsStrandedTemp(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	j.Append(accepted(1, `{}`))
	j.Close()
	stranded := filepath.Join(dir, ".tmp-wal-x")
	if err := os.WriteFile(stranded, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, inc, _ := mustOpen(t, dir)
	defer j2.Close()
	if _, err := os.Stat(stranded); !os.IsNotExist(err) {
		t.Error("stranded compaction temp file survived reopen")
	}
	if len(inc) != 1 || inc[0].Job != "job-1" {
		t.Errorf("incomplete = %+v, want job-1", inc)
	}
}
