package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perflow"
	"perflow/internal/serve/store"
)

// The resultCache is a thin envelope layer over a pluggable store: these
// tests pin the envelope round-trip and its failure handling, the one
// integrity check on a stored value. The backing stores' own behavior
// (LRU, headers, durability) is tested in internal/serve/store.

func testAnalysisRequest() perflow.AnalysisRequest {
	return perflow.AnalysisRequest{
		Workload: "stencil",
		Analysis: "profile",
		Ranks:    2,
	}.WithDefaults()
}

func TestResultCacheEnvelopeRoundTrip(t *testing.T) {
	c := newResultCache(store.NewMemory(1 << 20))
	req := testAnalysisRequest()
	result := []byte(`{"report":"hello","violations":[]}`)

	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", req, result)

	got, ok := c.Get("k")
	if !ok {
		t.Fatal("miss on resident entry")
	}
	if string(got) != string(result) {
		t.Fatalf("Get = %q, want the exact bytes %q", got, result)
	}

	gotReq, gotResult, ok := c.Entry("k")
	if !ok {
		t.Fatal("Entry miss on resident entry")
	}
	if string(gotResult) != string(result) {
		t.Fatalf("Entry result = %q, want %q", gotResult, result)
	}
	if gotReq.CacheKey() != req.CacheKey() {
		t.Fatalf("Entry request round-trip changed the content address:\n got %s\nwant %s",
			gotReq.CacheKey(), req.CacheKey())
	}
}

func TestResultCacheUndecodableEnvelope(t *testing.T) {
	st := store.NewMemory(1 << 20)
	c := newResultCache(st)

	// Raw bytes written around the envelope (an incompatible writer) must
	// read as a miss and be dropped, not returned as a result.
	st.Put("bad", []byte("not json"))
	if _, ok := c.Get("bad"); ok {
		t.Fatal("undecodable envelope served as a hit")
	}
	if _, ok, _ := st.Get("bad"); ok {
		t.Error("undecodable envelope not dropped from the store")
	}

	// Same for a decodable envelope with the wrong version.
	st.Put("v9", []byte(`{"v":9,"request":{},"result":{}}`))
	if _, _, ok := c.Entry("v9"); ok {
		t.Fatal("wrong-version envelope served as a hit")
	}

	// And for a version 2 JSON envelope whose CRC does not match its
	// result bytes.
	st.Put("torn", []byte(`{"v":2,"crc":12345,"request":{},"result":{"report":"x"}}`))
	if _, _, ok := c.Entry("torn"); ok {
		t.Fatal("CRC-mismatched envelope served as a hit")
	}
	if _, ok, _ := st.Get("torn"); ok {
		t.Error("CRC-mismatched envelope not dropped from the store")
	}
}

func TestResultCacheDeleteAndKeys(t *testing.T) {
	c := newResultCache(store.NewMemory(1 << 20))
	req := testAnalysisRequest()
	c.Put("a", req, []byte(`{"report":"a"}`))
	c.Put("b", req, []byte(`{"report":"b"}`))
	if keys, _ := c.Keys(); len(keys) != 2 {
		t.Fatalf("Keys() = %d entries, want 2", len(keys))
	}
	c.Delete("a")
	if _, ok := c.Get("a"); ok {
		t.Error("deleted entry still served")
	}
	keys, _ := c.Keys()
	if len(keys) != 1 || keys[0] != "b" {
		t.Errorf("Keys() after delete = %v, want [b]", keys)
	}
}

func TestResultCacheStatsPassThrough(t *testing.T) {
	c := newResultCache(store.NewMemory(1 << 20))
	req := testAnalysisRequest()
	c.Put("x", req, []byte(`{"report":"x"}`))
	c.Get("x")
	c.Get("x")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// cacheBackends opens the two stores a resultCache runs over in
// production, each in a fresh state.
func cacheBackends(t *testing.T) map[string]func() store.Store {
	return map[string]func() store.Store{
		"memory": func() store.Store { return store.NewMemory(1 << 20) },
		"disk": func() store.Store {
			d, err := store.NewDisk(t.TempDir(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

// TestResultCacheTornAndFlippedEnvelopes stores every strict prefix of an
// envelope and every single-byte flip of one below the cache, the shapes
// a torn write or bit rot leaves: each reads as a miss, is deleted from the
// store and is counted as corrupt, over both backends.
func TestResultCacheTornAndFlippedEnvelopes(t *testing.T) {
	req := testAnalysisRequest()
	result := []byte(`{"report":"hello","violations":[]}`)
	for name, open := range cacheBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := open()
			c := newResultCache(st)
			if err := c.Put("k", req, result); err != nil {
				t.Fatal(err)
			}
			good, ok, err := st.Get("k")
			if err != nil || !ok {
				t.Fatalf("stored envelope unreadable: %v", err)
			}
			good = append([]byte(nil), good...)
			var bad [][]byte
			for n := 0; n < len(good); n++ {
				bad = append(bad, good[:n:n])
			}
			for i := range good {
				flipped := append([]byte(nil), good...)
				flipped[i] ^= 0x5a
				bad = append(bad, flipped)
			}
			for i, raw := range bad {
				before := c.Stats().Corrupt
				if err := st.Put("k", raw); err != nil {
					t.Fatal(err)
				}
				if got, ok := c.Get("k"); ok {
					t.Fatalf("case %d: damaged envelope served: %q", i, got)
				}
				if _, ok, _ := st.Get("k"); ok {
					t.Fatalf("case %d: damaged envelope not deleted", i)
				}
				if after := c.Stats().Corrupt; after != before+1 {
					t.Fatalf("case %d: corrupt count %d -> %d, want one more", i, before, after)
				}
			}
			// The slot is reusable: a fresh Put serves again.
			c.Put("k", req, result)
			if got, ok := c.Get("k"); !ok || string(got) != string(result) {
				t.Errorf("re-put after corruption = %q, %v", got, ok)
			}
		})
	}
}

// TestResultCacheOverDiskCorruptionFallsThrough flips one result byte in
// a disk store's file, behind every check but the envelope's: the read
// misses (so the caller recomputes), the file is discarded, and the
// corruption is counted — garbage is never served.
func TestResultCacheOverDiskCorruptionFallsThrough(t *testing.T) {
	dir := t.TempDir()
	d, err := store.NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(d)
	key := fmt.Sprintf("%064x", 0xbeef)
	result := []byte(`{"report":"payload"}`)
	c.Put(key, testAnalysisRequest(), result)
	if got, ok := c.Get(key); !ok || string(got) != string(result) {
		t.Fatal("clean entry unreadable")
	}

	path := filepath.Join(dir, key[:2], key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-5] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.Get(key); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not discarded")
	}
	c.Put(key, testAnalysisRequest(), result)
	if got, ok := c.Get(key); !ok || string(got) != string(result) {
		t.Error("re-put after corruption unreadable")
	}
}

// TestResultCacheParentEnvelopeIsDiscarded stores a version 2 JSON
// envelope, intact under its own CRC: it is a cache entry of an older
// server, so it reads as a miss and is deleted for recomputation.
func TestResultCacheParentEnvelopeIsDiscarded(t *testing.T) {
	st := store.NewMemory(1 << 20)
	c := newResultCache(st)
	result := json.RawMessage(`{"report":"old"}`)
	raw, err := json.Marshal(map[string]any{
		"v": 2, "crc": crc32.ChecksumIEEE(result), "request": testAnalysisRequest(), "result": result,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Put("old", raw)
	if _, _, ok := c.Entry("old"); ok {
		t.Fatal("version 2 envelope served as a hit")
	}
	if _, ok, _ := st.Get("old"); ok {
		t.Error("version 2 envelope not deleted")
	}
	if got := c.Stats().Corrupt; got != 1 {
		t.Errorf("corrupt count = %d, want 1", got)
	}
}

// TestCacheCorruptCountsChaosTear runs a server over a chaos store that
// tears every write below the envelope: the resubmission's read discards
// the torn envelope, and /metrics counts it in cache_corrupt.
func TestCacheCorruptCountsChaosTear(t *testing.T) {
	st, err := store.Open("chaos:seed=3,torn=1:memory", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Store: st})
	req := SubmitRequest{AnalysisRequest: perflow.AnalysisRequest{Workload: "ep", Analysis: "profile", Ranks: 2}}
	for i := 0; i < 2; i++ {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202 (a torn entry is never a hit): %s", i, resp.StatusCode, data)
		}
		if v := waitTerminal(t, ts, decodeView(t, data).ID, 30*time.Second); v.State != StateDone {
			t.Fatalf("submit %d finished %s", i, v.State)
		}
	}
	if got, _ := metricsSnapshot(t, ts)["cache_corrupt"].(float64); got < 1 {
		t.Errorf("cache_corrupt = %v, want >= 1", got)
	}
}
