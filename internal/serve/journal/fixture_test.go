package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The PFJ1 fixture under testdata/ holds acknowledged jobs, so every
// version of the journal must replay it and write the same bytes for the
// same records: a journal survives an upgrade of the server that wrote it.

const (
	fixturePath = "testdata/pfj1.wal"
	// fixtureTornCut is how many bytes of fixtureTorn's record the fixture
	// keeps: a crash mid-append left its length, CRC and part of its payload.
	fixtureTornCut = 40
)

// fixtureRecords are the intact records of the fixture, in append order.
var fixtureRecords = []Record{
	{Seq: 1, Job: "job-1", Key: "key-1", Tenant: "default", State: StateAccepted, UnixUS: 1000,
		Request: json.RawMessage(`{"workload":"mg","analysis":"profile","ranks":4}`)},
	{Seq: 1, Job: "job-1", Key: "key-1", Tenant: "default", State: StateRunning, UnixUS: 1100},
	{Seq: 2, Job: "job-2", Key: "key-2", Tenant: "team-a", State: StateAccepted, UnixUS: 2000,
		Request: json.RawMessage(`{"workload":"cg","analysis":"comm","ranks":8}`)},
	{Seq: 1, Job: "job-1", Key: "key-1", Tenant: "default", State: StateDone, UnixUS: 2100},
	{Seq: 3, Job: "job-3", Key: "key-3", Tenant: "default", State: StateAccepted, UnixUS: 3000,
		Request: json.RawMessage(`{"workload":"bt","analysis":"hotspot","ranks":16}`)},
	{Seq: 3, Job: "job-3", Key: "key-3", Tenant: "default", State: StateRunning, Attempt: 1, UnixUS: 3100},
	{Seq: 4, Job: "job-4", Key: "key-4", Tenant: "team-a", State: StateAccepted, UnixUS: 4000,
		Request: json.RawMessage(`{"workload":"lu","analysis":"profile","ranks":2}`)},
	{Seq: 4, Job: "job-4", Key: "key-4", Tenant: "team-a", State: StateFailed, Attempt: 2, Err: "boom", UnixUS: 4100},
	{Seq: 2, Job: "job-2", Key: "key-2", Tenant: "team-a", State: StateRunning, UnixUS: 4200},
}

// fixtureTorn is the record whose append the crash interrupted.
var fixtureTorn = Record{Seq: 5, Job: "job-5", Key: "key-5", Tenant: "default", State: StateAccepted, UnixUS: 5000,
	Request: json.RawMessage(`{"workload":"sp","analysis":"profile","ranks":4}`)}

// writeJournal appends recs to a fresh journal and returns the file image.
func writeJournal(t *testing.T, recs []Record) []byte {
	t.Helper()
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestJournalFixtureReplay replays the checked-in PFJ1 journal: the jobs
// accepted or running without a terminal record come back in Seq order,
// the torn tail is dropped, and numbering resumes above the highest intact
// Seq.
func TestJournalFixtureReplay(t *testing.T) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, inc, maxSeq := mustOpen(t, dir)
	defer j.Close()
	want := []Entry{
		{Seq: 2, Job: "job-2", Key: "key-2", Tenant: "team-a",
			Request: json.RawMessage(`{"workload":"cg","analysis":"comm","ranks":8}`)},
		{Seq: 3, Job: "job-3", Key: "key-3", Tenant: "default",
			Request: json.RawMessage(`{"workload":"bt","analysis":"hotspot","ranks":16}`)},
	}
	if !reflect.DeepEqual(inc, want) {
		t.Errorf("replayed entries = %+v\nwant %+v", inc, want)
	}
	if maxSeq != 4 {
		t.Errorf("maxSeq = %d, want 4", maxSeq)
	}
}

// TestJournalFixtureBytes checks the journal writes the fixture's exact
// bytes for the fixture's records: the header, every intact record, and
// the first fixtureTornCut bytes of the torn one.
func TestJournalFixtureBytes(t *testing.T) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	intact := writeJournal(t, fixtureRecords)
	full := writeJournal(t, append(append([]Record(nil), fixtureRecords...), fixtureTorn))
	if cut := len(intact) + fixtureTornCut; cut >= len(full) {
		t.Fatalf("fixtureTornCut %d does not tear the last record (%d bytes)", fixtureTornCut, len(full)-len(intact))
	}
	if got := full[:len(intact)+fixtureTornCut]; !bytes.Equal(got, fixture) {
		t.Errorf("journal image differs from %s:\n got %q\nwant %q", fixturePath, got, fixture)
	}
}
