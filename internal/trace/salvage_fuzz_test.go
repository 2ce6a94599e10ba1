package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"perflow/internal/frame"
	"perflow/internal/ir"
)

// fuzzSampleRun builds a small two-rank run whose encoding seeds the
// corpus: every fuzz mutation starts from at least one well-formed trace.
func fuzzSampleRun() *Run {
	return &Run{
		NRanks: 2,
		Events: [][]Event{
			{
				{Rank: 0, Thread: -1, Kind: KindCompute, Node: 1, Ctx: 0, Start: 0, End: 10},
				{Rank: 0, Thread: -1, Kind: KindComm, Op: ir.CommSend, Node: 2, Ctx: 1,
					Start: 10, End: 14, Wait: 1, Peer: 1, Bytes: 4096, Count: 1},
			},
			{
				{Rank: 1, Thread: -1, Kind: KindComm, Op: ir.CommRecv, Node: 3, Ctx: 2,
					Start: 0, End: 14, Wait: 9, Peer: 0, Bytes: 4096, Count: 1},
			},
		},
		Elapsed: []float64{14, 14},
	}
}

// Offsets into fuzzSampleRun's TRC2 image.
const (
	countsAt  = frame.HeaderLen + frame.RecordHeaderLen // nStreams, nRanks
	stream0At = countsAt + 8                            // stream 0's record
	event0At  = stream0At + frame.RecordHeaderLen       // its first event
	stream1At = event0At + 2*eventWireSize              // stream 1's record
)

// mutateFramed returns the framed sample encoding with 4 bytes
// overwritten at off.
func mutateFramed(tb testing.TB, off int, val uint32) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := fuzzSampleRun().EncodeFramed(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[off:], val)
	return b
}

// withCounts returns the framed sample encoding with the header record
// declaring nStreams and nRanks under a matching CRC.
func withCounts(tb testing.TB, nStreams, nRanks uint32) []byte {
	tb.Helper()
	b := mutateFramed(tb, countsAt, nStreams)
	binary.LittleEndian.PutUint32(b[countsAt+4:], nRanks)
	sealed := frame.AppendRecord(frame.AppendHeader(nil, framedMagic, framedVersion), b[countsAt:stream0At])
	return append(sealed, b[stream0At:]...)
}

// FuzzSalvage asserts the salvage decoder's contract on arbitrary bytes:
// it never panics, never returns nil, never over-allocates from hostile
// counts, and an input it reports Complete round-trips through
// EncodeFramed ∘ Salvage unchanged. Interesting crashers found while
// developing it are checked in under testdata/fuzz/FuzzSalvage.
func FuzzSalvage(f *testing.F) {
	var buf bytes.Buffer
	if _, err := fuzzSampleRun().EncodeFramed(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:stream0At]...))    // header only
	f.Add(append([]byte(nil), valid[:len(valid)-7]...)) // truncated mid-event
	f.Add(append([]byte(nil), valid[:event0At+27]...))  // truncated mid-first-event
	f.Add(withCounts(f, 1<<31, 2))                      // implausible stream count
	f.Add(withCounts(f, 2, 1<<31))                      // implausible rank count
	f.Add(mutateFramed(f, stream0At, 1<<30))            // corrupt record length
	f.Add(mutateFramed(f, stream0At, eventWireSize+1))  // length not a whole event count
	f.Add(mutateFramed(f, event0At, 0xffffffff))        // first event rank = -1
	f.Add(mutateFramed(f, event0At+20, 0xdeadbeef))     // payload flip -> CRC mismatch
	f.Add(mutateFramed(f, stream1At+4, 0))              // last CRC flipped

	f.Fuzz(func(t *testing.T, data []byte) {
		run, rep := Salvage(bytes.NewReader(data))
		if run == nil || rep == nil {
			t.Fatal("Salvage returned nil")
		}
		// The recovered run must survive the read-side API.
		_ = run.TotalTime()
		_ = run.ComputeStats()
		_ = run.Degraded()
		_ = rep.String()
		if rep.Complete {
			if run.Status != nil {
				t.Fatalf("Complete run carries Status %+v", run.Status)
			}
			var re bytes.Buffer
			if _, err := run.EncodeFramed(&re); err != nil {
				t.Fatalf("re-encode of complete salvage failed: %v", err)
			}
			run2, rep2 := Salvage(bytes.NewReader(re.Bytes()))
			if !rep2.Complete {
				t.Fatalf("re-encoded complete run salvaged incomplete: %+v", rep2)
			}
			if !reflect.DeepEqual(run.Events, run2.Events) {
				t.Fatal("Salvage ∘ EncodeFramed not a fixed point on complete input")
			}
		}
		for _, s := range rep.Streams {
			if s.Recovered < 0 || s.Lost < 0 {
				t.Fatalf("negative stream counts: %+v", s)
			}
		}
	})
}
