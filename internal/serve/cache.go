package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"sync/atomic"

	"perflow"
	"perflow/internal/frame"
	"perflow/internal/serve/store"
)

// resultCache is the serve layer's view of the pluggable result store: a
// content-addressed map from cache key to a stored envelope holding both
// the originating request and the marshaled JobResult. Keeping the request
// next to the result is what makes the audit loop possible — any replica
// can pick a cached entry and re-execute it against the current engine
// without the submitting client still being around.
//
// The envelope is a frame header ("PFC1", version 3) and one record whose
// payload is len(request) u32 | request JSON | result bytes. Its CRC is the
// one check a stored value gets, and it sits here because only here does it
// see every tear: a disk file cut by a crash, and a value a backend tore
// without tearing its own framing (the chaos store, a remote KV). A hit
// serves the result bytes exactly as stored. Versions 1 and 2 were JSON
// envelopes; they read as corrupt and are recomputed.
type resultCache struct {
	store   store.Store
	corrupt atomic.Int64 // envelopes this layer discarded
}

var entryMagic = [4]byte{'P', 'F', 'C', '1'}

const entryVersion = 3

func newResultCache(st store.Store) *resultCache {
	return &resultCache{store: st}
}

// Get returns the cached result bytes for key, copied out so that a job
// keeping them does not keep the whole stored envelope alive.
func (c *resultCache) Get(key string) ([]byte, bool) {
	result, ok := c.open(key, nil)
	return bytes.Clone(result), ok
}

// Entry returns the cached request and result bytes for key.
func (c *resultCache) Entry(key string) (req perflow.AnalysisRequest, result []byte, ok bool) {
	if result, ok = c.open(key, &req); !ok {
		req = perflow.AnalysisRequest{}
	}
	return req, result, ok
}

// open reads key's envelope, decoding its request into req unless req is
// nil. A backend error reads as a miss — the caller recomputes, which is
// always safe for a content-addressed cache. An envelope that fails its
// checks is deleted, counted and read as a miss: corruption is never
// served.
func (c *resultCache) open(key string, req *perflow.AnalysisRequest) ([]byte, bool) {
	raw, ok, err := c.store.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	reqJSON, result, ok := decodeEntry(raw)
	if ok && req != nil {
		ok = json.Unmarshal(reqJSON, req) == nil
	}
	if !ok {
		c.corrupt.Add(1)
		c.store.Delete(key)
		return nil, false
	}
	return result, true
}

// decodeEntry checks an envelope: the current header, exactly one intact
// record, and a request length that fits inside it.
func decodeEntry(raw []byte) (reqJSON, result []byte, ok bool) {
	body, err := frame.ReadHeader(raw, entryMagic, entryVersion)
	if err != nil {
		return nil, nil, false
	}
	rd := frame.NewReader(body)
	payload, err := rd.Next()
	if _, end := rd.Next(); err != nil || end != io.EOF || len(payload) < 4 {
		return nil, nil, false
	}
	n := 4 + uint64(binary.LittleEndian.Uint32(payload))
	if n > uint64(len(payload)) {
		return nil, nil, false
	}
	return payload[4:n], payload[n:], true
}

// Put stores a finished job's result under its content address, alongside
// the request that produced it. The returned error is the backend's — with
// the circuit breaker in front (the server's default) it is always nil.
func (c *resultCache) Put(key string, req perflow.AnalysisRequest, result []byte) error {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(reqJSON)))
	raw := make([]byte, 0, frame.HeaderLen+frame.RecordHeaderLen+len(n)+len(reqJSON)+len(result))
	raw = frame.AppendRecord(frame.AppendHeader(raw, entryMagic, entryVersion), n[:], reqJSON, result)
	return c.store.Put(key, raw)
}

// Delete evicts one entry (the audit loop's drift path).
func (c *resultCache) Delete(key string) { c.store.Delete(key) }

// Keys lists the resident content addresses.
func (c *resultCache) Keys() ([]string, error) { return c.store.Keys() }

// Stats snapshots the backing store's counters, with Corrupt counting every
// stored value the serve layer discarded: the ones the store caught itself
// and the envelopes that failed here.
func (c *resultCache) Stats() store.Stats {
	st := c.store.Stats()
	st.Corrupt += c.corrupt.Load()
	return st
}
