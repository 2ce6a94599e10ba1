package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"perflow/internal/frame"
)

func encodeFramed(t testing.TB, r *Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := r.EncodeFramed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != r.FramedSize() {
		t.Fatalf("FramedSize %d != written %d", r.FramedSize(), n)
	}
	return buf.Bytes()
}

func TestSalvageRoundTripIntact(t *testing.T) {
	orig := fuzzSampleRun()
	data := encodeFramed(t, orig)
	run, rep := Salvage(bytes.NewReader(data))
	if !rep.Complete || !rep.HeaderOK {
		t.Fatalf("intact input not complete: %+v", rep)
	}
	if !reflect.DeepEqual(run.Events, orig.Events) {
		t.Error("round trip changed events")
	}
	if run.Status != nil {
		t.Errorf("intact run must have nil Status, got %+v", run.Status)
	}
	if got := rep.String(); got != "salvage: complete, 2 streams intact" {
		t.Errorf("report string = %q", got)
	}
}

// TestSalvageTruncationRecoversPrefix is the core salvage guarantee: for a
// truncation at ANY byte position, every event whose bytes fully arrived
// is recovered.
func TestSalvageTruncationRecoversPrefix(t *testing.T) {
	orig := fuzzSampleRun()
	data := encodeFramed(t, orig)

	// Walk the record layout to compute, for a prefix of n bytes, how many
	// complete events it contains.
	intactEvents := func(n int) int {
		off, total := stream0At, 0
		for _, evs := range orig.Events {
			off += frame.RecordHeaderLen
			for range evs {
				if off+eventWireSize <= n {
					total++
				}
				off += eventWireSize
			}
		}
		return total
	}

	for n := 0; n <= len(data); n++ {
		run, rep := Salvage(bytes.NewReader(data[:n]))
		got := run.NumEvents()
		if want := intactEvents(n); got < want {
			t.Fatalf("truncation at %d: recovered %d events, want >= %d", n, got, want)
		}
		if n < len(data) && rep.Complete {
			t.Fatalf("truncation at %d reported Complete", n)
		}
		if n == len(data) && !rep.Complete {
			t.Fatalf("full input reported incomplete: %+v", rep)
		}
	}
}

func TestSalvageChecksumMismatchFlagsStream(t *testing.T) {
	orig := fuzzSampleRun()
	data := encodeFramed(t, orig)
	// Flip one byte inside the first event's Start field: the record still
	// parses, but the frame CRC must catch it.
	data[event0At+20] ^= 0xff
	run, rep := Salvage(bytes.NewReader(data))
	if rep.Complete {
		t.Fatal("corrupt input reported Complete")
	}
	if rep.Streams[0].Err != SalvageChecksum {
		t.Errorf("stream 0 err = %q, want %q", rep.Streams[0].Err, SalvageChecksum)
	}
	if rep.Streams[1].Err != "" {
		t.Errorf("stream 1 should be intact, got %q", rep.Streams[1].Err)
	}
	if run.Status == nil || !run.Status[0].Salvaged {
		t.Errorf("stream 0 must be marked Salvaged: %+v", run.Status)
	}
	if run.Status[1].Salvaged {
		t.Error("stream 1 wrongly marked Salvaged")
	}
	// The undamaged stream is recovered exactly.
	if !reflect.DeepEqual(run.Events[1], orig.Events[1]) {
		t.Error("intact stream 1 changed")
	}
}

func TestSalvageInvalidEventKeepsValidPrefixAndLaterFrames(t *testing.T) {
	orig := fuzzSampleRun()
	data := encodeFramed(t, orig)
	// Wreck the second event of stream 0 (rank -> garbage beyond the rank
	// bound) without touching its length: framing stays intact.
	binary.LittleEndian.PutUint32(data[event0At+eventWireSize:], 0xffffffff)
	run, rep := Salvage(bytes.NewReader(data))
	if rep.Streams[0].Err != SalvageBadEvent || rep.Streams[0].Recovered != 1 || rep.Streams[0].Lost != 1 {
		t.Errorf("stream 0 = %+v, want 1 recovered / 1 lost invalid-event", rep.Streams[0])
	}
	if rep.Streams[1].Err != "" || !reflect.DeepEqual(run.Events[1], orig.Events[1]) {
		t.Error("frame after the damaged one must decode intact")
	}
	if run.Status[0].LostEvents != 1 {
		t.Errorf("LostEvents = %d, want 1", run.Status[0].LostEvents)
	}
}

func TestSalvageGarbageAndHostileHeaders(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"short header": {0x32, 0x43, 0x52, 0x54},
		"bad magic":    bytes.Repeat([]byte{0xab}, 64),
	}
	cases["implausible streams"] = withCounts(t, 1<<30, 2)[:stream0At]
	for name, data := range cases {
		run, rep := Salvage(bytes.NewReader(data))
		if rep.HeaderOK {
			t.Errorf("%s: header accepted", name)
		}
		if rep.Complete {
			t.Errorf("%s: reported complete", name)
		}
		if run == nil || run.NumEvents() != 0 {
			t.Errorf("%s: want empty run, got %v", name, run)
		}
	}
}

func TestSalvageMissingStreams(t *testing.T) {
	data := encodeFramed(t, fuzzSampleRun())
	// Cut the whole second frame.
	run, rep := Salvage(bytes.NewReader(data[:stream1At]))
	if rep.MissingStreams != 1 {
		t.Errorf("MissingStreams = %d, want 1", rep.MissingStreams)
	}
	if len(run.Events) != 2 || len(run.Events[1]) != 0 {
		t.Errorf("missing stream should pad to an empty slice: %d streams", len(run.Events))
	}
	if !run.Status[1].Salvaged {
		t.Error("missing stream must be marked Salvaged")
	}
	if rep.Streams[0].Err != "" || rep.Streams[0].Recovered != 2 {
		t.Errorf("stream 0 should be intact: %+v", rep.Streams[0])
	}
}
