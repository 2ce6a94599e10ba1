package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"perflow/internal/frame"
	"perflow/internal/ir"
)

// Framed trace encoding (TRC2): each rank's event stream is an
// independent internal/frame record carrying its own CRC32. Corruption or
// truncation therefore damages at most the records it touches, and Salvage
// can recover the valid event prefix of a damaged record plus every intact
// record after it — which is what real collection infrastructure has to do
// when a node dies mid-run and leaves a half-written trace file behind.
//
//	header:  frame header, magic "2CRT", version 2
//	record:  nStreams uint32 | nRanks uint32
//	record:  one per stream, its events at eventWireSize bytes each

// framedMagic is 0x54524332 ("TRC2") little-endian, as version 1 (its own
// count-prefixed frames) wrote it, so Salvage refuses a version 1 trace by
// its version.
var framedMagic = [4]byte{'2', 'C', 'R', 'T'}

const (
	framedVersion = 2
	// eventWireSize is the fixed per-event payload: rank(4) thread(4)
	// kind(1) op(1) node(4) ctx(4) start(8) end(8) wait(8) peer(4)
	// bytes(8) count(4).
	eventWireSize = 58
	// maxDecodeRanks bounds the rank and stream counts Salvage accepts and
	// every event's Rank field.
	maxDecodeRanks = 1 << 20
)

// EncodedSize is the storage-cost model of a trace: a 16-byte header,
// eventWireSize bytes per event and 4 bytes per stream. It is not a wire
// format; it is what "storage cost of a trace" means in this repo, the
// Scalasca-like baseline's side of the paper's §5.3 comparison (57.64 GB
// of traces vs 2.4 MB of PAG). FramedSize is the size of the TRC2 bytes
// Salvage reads.
func (r *Run) EncodedSize() int64 {
	return int64(16) + int64(r.NumEvents())*eventWireSize + int64(len(r.Events))*4
}

// Salvage condition strings, stable for tests and reports.
const (
	SalvageTruncated = "truncated"
	SalvageChecksum  = "checksum mismatch"
	SalvageBadCount  = "implausible event count"
	SalvageBadEvent  = "invalid event"
)

// FramedSize returns the exact number of bytes EncodeFramed would write.
func (r *Run) FramedSize() int64 {
	return frame.HeaderLen + frame.RecordHeaderLen + 8 +
		int64(r.NumEvents())*eventWireSize + int64(len(r.Events))*frame.RecordHeaderLen
}

// EncodeFramed writes the run's event streams in the TRC2 framed format
// and returns the byte count.
func (r *Run) EncodeFramed(w io.Writer) (int64, error) {
	var counts [8]byte
	binary.LittleEndian.PutUint32(counts[0:], uint32(len(r.Events)))
	binary.LittleEndian.PutUint32(counts[4:], uint32(r.NRanks))
	buf := frame.AppendHeader(make([]byte, 0, r.FramedSize()), framedMagic, framedVersion)
	buf = frame.AppendRecord(buf, counts[:])
	var payload []byte
	var ev [eventWireSize]byte
	for _, evs := range r.Events {
		payload = payload[:0]
		for i := range evs {
			putEventWire(&ev, &evs[i])
			payload = append(payload, ev[:]...)
		}
		buf = frame.AppendRecord(buf, payload)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

func putEventWire(buf *[eventWireSize]byte, e *Event) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(e.Rank))
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Thread))
	buf[8] = byte(e.Kind)
	buf[9] = byte(e.Op)
	binary.LittleEndian.PutUint32(buf[10:], uint32(e.Node))
	binary.LittleEndian.PutUint32(buf[14:], uint32(e.Ctx))
	binary.LittleEndian.PutUint64(buf[18:], math.Float64bits(e.Start))
	binary.LittleEndian.PutUint64(buf[26:], math.Float64bits(e.End))
	binary.LittleEndian.PutUint64(buf[34:], math.Float64bits(e.Wait))
	binary.LittleEndian.PutUint32(buf[42:], uint32(e.Peer))
	binary.LittleEndian.PutUint64(buf[46:], math.Float64bits(e.Bytes))
	binary.LittleEndian.PutUint32(buf[54:], uint32(e.Count))
}

func eventFromWire(buf *[eventWireSize]byte) Event {
	return Event{
		Rank:   int32(binary.LittleEndian.Uint32(buf[0:])),
		Thread: int32(binary.LittleEndian.Uint32(buf[4:])),
		Kind:   Kind(buf[8]),
		Op:     ir.CommKind(buf[9]),
		Node:   ir.NodeID(binary.LittleEndian.Uint32(buf[10:])),
		Ctx:    CtxID(binary.LittleEndian.Uint32(buf[14:])),
		Start:  math.Float64frombits(binary.LittleEndian.Uint64(buf[18:])),
		End:    math.Float64frombits(binary.LittleEndian.Uint64(buf[26:])),
		Wait:   math.Float64frombits(binary.LittleEndian.Uint64(buf[34:])),
		Peer:   int32(binary.LittleEndian.Uint32(buf[42:])),
		Bytes:  math.Float64frombits(binary.LittleEndian.Uint64(buf[46:])),
		Count:  int32(binary.LittleEndian.Uint32(buf[54:])),
	}
}

// saneEvent is the per-event validity check applied when a frame's CRC
// cannot vouch for its contents. Every event a simulator run produces
// passes it, so on truncation-only corruption the whole intact prefix is
// recovered.
func saneEvent(e *Event) bool {
	return e.Rank >= 0 && e.Rank < maxDecodeRanks &&
		e.Kind >= KindCompute && e.Kind <= KindGPUSync &&
		e.Op >= ir.CommSend && e.Op <= ir.CommScatter
}

// StreamSalvage describes the recovery outcome of one declared stream.
type StreamSalvage struct {
	Stream    int
	Recovered int    // events recovered (valid prefix)
	Lost      int    // declared events that could not be recovered
	Err       string // "" when the frame was intact
}

// SalvageReport is the structured outcome of Salvage: what was recovered,
// what was lost, and why. It replaces the error return — salvage always
// produces a (possibly empty) run.
type SalvageReport struct {
	HeaderOK  bool
	HeaderErr string
	// Complete is true when nothing was damaged: the run holds every
	// event the encoder wrote.
	Complete bool
	Streams  []StreamSalvage
	// MissingStreams counts declared streams with no bytes at all.
	MissingStreams int
}

// LostEvents totals the events known to be lost across streams.
func (sr *SalvageReport) LostEvents() int {
	n := 0
	for _, s := range sr.Streams {
		n += s.Lost
	}
	return n
}

// String summarizes the report in one line.
func (sr *SalvageReport) String() string {
	if sr.Complete {
		return fmt.Sprintf("salvage: complete, %d streams intact", len(sr.Streams))
	}
	var b strings.Builder
	damaged := 0
	for _, s := range sr.Streams {
		if s.Err != "" {
			damaged++
		}
	}
	fmt.Fprintf(&b, "salvage: %d/%d streams damaged, %d events lost", damaged, len(sr.Streams), sr.LostEvents())
	if sr.MissingStreams > 0 {
		fmt.Fprintf(&b, ", %d streams missing", sr.MissingStreams)
	}
	if !sr.HeaderOK {
		fmt.Fprintf(&b, " (%s)", sr.HeaderErr)
	}
	return b.String()
}

// Salvage decodes a TRC2 framed trace, recovering as much as possible
// from corrupt or truncated input. It never returns an error and never
// panics: damaged records contribute their valid event prefix, missing
// records contribute empty streams, and the report records exactly what
// was lost. Recovered-but-damaged streams are marked Salvaged (with
// LostEvents) in Run.Status.
func Salvage(r io.Reader) (*Run, *SalvageReport) {
	run, rep := &Run{}, &SalvageReport{}
	data, _ := io.ReadAll(r) // a read error is a truncation like any other

	body, err := frame.ReadHeader(data, framedMagic, framedVersion)
	rd := frame.NewReader(body)
	var counts []byte
	if err == nil {
		counts, err = rd.Next()
	}
	switch {
	case err == frame.ErrMagic:
		rep.HeaderErr = "bad magic"
	case err == frame.ErrVersion:
		rep.HeaderErr = "unsupported version"
	case err == frame.ErrChecksum:
		rep.HeaderErr = "header checksum mismatch"
	case err != nil || len(counts) != 8:
		rep.HeaderErr = "short header"
	}
	if rep.HeaderErr != "" {
		return run, rep
	}
	nStreams := binary.LittleEndian.Uint32(counts[0:])
	nRanks := binary.LittleEndian.Uint32(counts[4:])
	if nStreams > maxDecodeRanks || nRanks > maxDecodeRanks {
		rep.HeaderErr = "implausible stream or rank count"
		return run, rep
	}
	rep.HeaderOK = true
	run.NRanks = int(nRanks)

	// Grow incrementally: header counts are not trusted until bytes arrive.
	run.Events = make([][]Event, 0, min(int(nStreams), 1024))
	// Once the input ends mid-record, framing is gone.
	for s := uint32(0); s < nStreams && err != frame.ErrTorn; s++ {
		var payload []byte
		payload, err = rd.Next()
		if rd.Declared() < 0 { // no record, or not even its header
			rep.MissingStreams = int(nStreams - s)
			break
		}
		ss := StreamSalvage{Stream: int(s)}
		// The payload's own bytes bound the allocation, not the declared
		// length.
		evs := make([]Event, 0, len(payload)/eventWireSize)
		for len(payload) >= eventWireSize {
			e := eventFromWire((*[eventWireSize]byte)(payload))
			if !saneEvent(&e) {
				// Keep the valid prefix; everything after the first mangled
				// event in this record is suspect.
				ss.Err = SalvageBadEvent
				break
			}
			evs = append(evs, e)
			payload = payload[eventWireSize:]
		}
		ss.Recovered = len(evs)
		ss.Lost = max(rd.Declared()/eventWireSize-len(evs), 0)
		switch {
		case rd.Declared()%eventWireSize != 0:
			// No stream has a fractional event, so the length field itself
			// is corrupt and the record boundary with it: stop after it.
			ss.Err, err = SalvageBadCount, frame.ErrTorn
		case ss.Err == "" && err == frame.ErrTorn:
			ss.Err = SalvageTruncated
		case ss.Err == "" && err == frame.ErrChecksum:
			// Every event individually parsed but the checksum disagrees:
			// some field was silently flipped. Keep the events (they are
			// structurally valid) but flag the stream so analysis treats
			// its metrics as unreliable.
			ss.Err = SalvageChecksum
		}
		rep.Streams = append(rep.Streams, ss)
		run.Events = append(run.Events, evs)
	}

	// Pad to the declared stream count so rank indexing stays aligned.
	for len(run.Events) < int(nStreams) {
		run.Events = append(run.Events, nil)
	}
	if run.NRanks < len(run.Events) {
		run.NRanks = len(run.Events)
	}

	run.Elapsed = make([]float64, run.NRanks)
	damaged := false
	for si, evs := range run.Events {
		for i := range evs {
			if r := int(evs[i].Rank); r < run.NRanks && evs[i].End > run.Elapsed[r] {
				run.Elapsed[r] = evs[i].End
			}
		}
		hurt := si >= len(rep.Streams) || rep.Streams[si].Err != ""
		if hurt {
			damaged = true
			if run.Status == nil {
				run.Status = make([]RankStatus, len(run.Events))
			}
			run.Status[si].Salvaged = true
			if si < len(rep.Streams) {
				run.Status[si].LostEvents = rep.Streams[si].Lost
			}
		}
	}
	rep.Complete = rep.HeaderOK && !damaged && rep.MissingStreams == 0
	return run, rep
}
