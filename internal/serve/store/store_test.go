package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"perflow/internal/frame"
)

// hexKey builds a 64-hex content address like the serve cache keys.
func hexKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func val(seed string, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed[i%len(seed)] + byte(i))
	}
	return b
}

// mustGet fails the test on a backend error and returns the hit/value pair.
func mustGet(t *testing.T, s Store, key string) ([]byte, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key[:min(8, len(key))], err)
	}
	return v, ok
}

// TestDifferentialMemoryVsDisk drives both implementations through one
// mixed sequence of puts, gets, replacements and deletes and pins that
// every Get answers byte-identically — the store behind the serve cache is
// interchangeable without changing a single served result.
func TestDifferentialMemoryVsDisk(t *testing.T) {
	mem := NewMemory(1 << 20)
	disk, err := NewDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	stores := []Store{mem, disk}

	keys := make([]string, 10)
	for i := range keys {
		keys[i] = hexKey(fmt.Sprintf("k%d", i))
	}
	ops := []struct {
		op  string
		key int
		val []byte
	}{
		{"put", 0, val("a", 100)}, {"put", 1, val("b", 2000)},
		{"get", 0, nil}, {"get", 2, nil},
		{"put", 0, val("a2", 150)}, // replace
		{"put", 3, val("c", 1)}, {"put", 4, val("d", 0)},
		{"del", 1, nil}, {"get", 1, nil},
		{"put", 5, val("e", 4096)},
		{"get", 0, nil}, {"get", 3, nil}, {"get", 4, nil}, {"get", 5, nil},
	}
	for i, op := range ops {
		key := keys[op.key]
		switch op.op {
		case "put":
			for _, s := range stores {
				if err := s.Put(key, op.val); err != nil {
					t.Fatalf("op %d: put: %v", i, err)
				}
			}
		case "del":
			for _, s := range stores {
				if err := s.Delete(key); err != nil {
					t.Fatalf("op %d: delete: %v", i, err)
				}
			}
		case "get":
			mv, mok := mustGet(t, mem, key)
			dv, dok := mustGet(t, disk, key)
			if mok != dok {
				t.Fatalf("op %d: presence diverged for %s: memory=%v disk=%v", i, key[:8], mok, dok)
			}
			if !bytes.Equal(mv, dv) {
				t.Fatalf("op %d: value diverged for %s: %d vs %d bytes", i, key[:8], len(mv), len(dv))
			}
		}
	}
	ms, ds := mem.Stats(), disk.Stats()
	if ms.Entries != ds.Entries {
		t.Errorf("entry count diverged: memory=%d disk=%d", ms.Entries, ds.Entries)
	}
	if ms.Hits != ds.Hits || ms.Misses != ds.Misses {
		t.Errorf("traffic diverged: memory=%d/%d disk=%d/%d hits/misses", ms.Hits, ms.Misses, ds.Hits, ds.Misses)
	}
}

// TestDiskParentFormatIsDiscarded plants a file in the version 1 layout
// (magic | crc32(keylen|key|payload) | keylen | key | payload): the entry
// was written by an older server, so it reads as a clean miss, is deleted
// and counted, and the key is recomputed.
func TestDiskParentFormatIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("legacy")
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(key)))
	body = append(append(body, key...), val("old", 64)...)
	file := append([]byte("PFS1"), binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))...)
	file = append(file, body...)
	path := filepath.Join(dir, key[:2], key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mustGet(t, d, key); ok {
		t.Fatal("version 1 file served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("version 1 file not deleted")
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("corrupt/entries = %d/%d, want 1/0", st.Corrupt, st.Entries)
	}
}

// TestDiskHeaderCorruption covers the non-payload failure shapes: bad
// magic, truncation below the header, and a key mismatch (a valid file
// squatting on another key's path).
func TestDiskHeaderCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey("h")
	d.Put(key, val("v", 64))
	path := filepath.Join(dir, key[:2], key)

	cases := []struct {
		name  string
		wreck func([]byte) []byte
	}{
		{"bad_magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated", func(b []byte) []byte { return b[:7] }},
		{"wrong_key", func(b []byte) []byte { return encode(hexKey("other"), []byte("v")) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d.Put(key, val("v", 64))
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.wreck(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := mustGet(t, d, key); ok {
				t.Error("wrecked entry served")
			}
		})
	}
}

// TestDiskSurvivesReopen pins the restart story: a fresh store over the
// same directory finds the previous process's entries.
func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey("persist")
	want := val("w", 256)
	d.Put(key, want)
	d.Close()

	d2, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := mustGet(t, d2, key); !ok || !bytes.Equal(got, want) {
		t.Fatal("entry lost across reopen")
	}
	got, err := d2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != key {
		t.Errorf("Keys after reopen = %v", got)
	}
}

// TestDiskSweepsOrphanedTemp pins the startup hygiene story: a temp file
// stranded by a crash mid-commit is removed on the next open and never
// indexed, even when its content would decode as a valid entry.
func TestDiskSweepsOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey("orphan")
	d.Put(key, val("v", 64))
	d.Close()

	// Simulate a crash between CreateTemp+fsync and the rename: a fully
	// valid entry image sitting under a temp name.
	sub := filepath.Join(dir, key[:2])
	orphan := filepath.Join(sub, frame.TempPrefix+"123456")
	if err := os.WriteFile(orphan, encode(hexKey("ghost"), val("g", 32)), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned temp file survived reopen")
	}
	keys, err := d2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys after sweep = %v, want just the real entry", keys)
	}
	// The ghost key the orphan carried must be a clean miss.
	if _, ok := mustGet(t, d2, hexKey("ghost")); ok {
		t.Error("orphaned temp content served")
	}
}

// TestDiskSharedBetweenReplicas pins the replica story: two stores over
// one directory share hits, including keys the other replica wrote after
// this one opened.
func TestDiskSharedBetweenReplicas(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey("shared")
	want := val("s", 128)
	a.Put(key, want)
	if got, ok := mustGet(t, b, key); !ok || !bytes.Equal(got, want) {
		t.Fatal("replica b missed a's write")
	}
	if st := b.Stats(); st.Hits != 1 {
		t.Errorf("replica b hits = %d, want 1", st.Hits)
	}
}

// TestDiskEviction checks the byte budget holds by dropping the
// least-recently-used entries and their files.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 10*8)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = hexKey(fmt.Sprintf("e%d", i))
		d.Put(keys[i], val("x", 8))
	}
	st := d.Stats()
	if st.Entries != 10 || st.Bytes != 80 {
		t.Errorf("entries/bytes = %d/%d, want 10/80", st.Entries, st.Bytes)
	}
	if _, ok := mustGet(t, d, keys[0]); ok {
		t.Error("oldest key survived eviction")
	}
	if _, ok := mustGet(t, d, keys[19]); !ok {
		t.Error("newest key evicted")
	}
	// Oversized values are not stored at all.
	d.Put(hexKey("big"), val("b", 81))
	if _, ok := mustGet(t, d, hexKey("big")); ok {
		t.Error("oversized entry stored")
	}
}

// TestOpenSpec covers the CLI spec parser, including the chaos wrapper.
func TestOpenSpec(t *testing.T) {
	if s, err := Open("memory", 1<<10); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*Memory); !ok {
		t.Errorf("memory spec opened %T", s)
	}
	dir := t.TempDir()
	if s, err := Open("disk:"+dir, 1<<10); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*Disk); !ok {
		t.Errorf("disk spec opened %T", s)
	}
	if s, err := Open("chaos:seed=7,err=0.5:memory", 1<<10); err != nil {
		t.Fatal(err)
	} else {
		ch, ok := s.(*Chaos)
		if !ok {
			t.Fatalf("chaos spec opened %T", s)
		}
		if _, ok := ch.inner.(*Memory); !ok {
			t.Errorf("chaos inner = %T, want *Memory", ch.inner)
		}
	}
	// Nested specs: chaos around disk.
	if s, err := Open("chaos:seed=1:disk:"+dir, 1<<10); err != nil {
		t.Fatal(err)
	} else if ch, ok := s.(*Chaos); !ok {
		t.Fatalf("chaos-disk spec opened %T", s)
	} else if _, ok := ch.inner.(*Disk); !ok {
		t.Errorf("chaos inner = %T, want *Disk", ch.inner)
	}
	bad := []string{
		"disk:", "redis://x", "tape",
		"chaos:", "chaos:seed=1", "chaos:seed=x:memory",
		"chaos:err=2:memory", "chaos:zoom=1:memory", "chaos:seed:memory",
	}
	for _, spec := range bad {
		if _, err := Open(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestMemoryLRU pins the memory store's recency order (moved here from
// the serve package when the cache went behind the Store interface).
func TestMemoryLRU(t *testing.T) {
	c := NewMemory(100)
	if _, ok := mustGet(t, c, "a"); ok {
		t.Fatal("hit on empty store")
	}
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if _, ok := mustGet(t, c, "a"); !ok {
		t.Fatal("miss on resident entry a")
	}
	// a is now MRU; inserting c (40 bytes) over the 100-byte budget must
	// evict b, the LRU entry, not a.
	c.Put("c", make([]byte, 40))
	if _, ok := mustGet(t, c, "b"); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	if _, ok := mustGet(t, c, "a"); !ok {
		t.Error("recently-used a was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Errorf("Keys = %v", keys)
	}
	c.Delete("a")
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 40 {
		t.Errorf("stats after delete = %+v", st)
	}
}

// TestDiskRescanOutcomes pins what a rescan makes of a directory: good
// entries (an empty value and a zero-length key among them) are indexed
// with their value sizes, and a file with a bad magic, a short key header
// or a key longer than the file is deleted and counted corrupt, at open
// and on a Keys call that finds files another replica wrote.
func TestDiskRescanOutcomes(t *testing.T) {
	dir := t.TempDir()
	good := map[string][]byte{
		hexKey("a"): val("a", 100),
		hexKey("b"): {},
		"":          val("c", 7),
		"plain key": val("d", 3000),
	}
	write := func(d *Disk) {
		for k, v := range good {
			if err := d.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	plant := func(name string, data []byte) string {
		path := filepath.Join(dir, name[:2], name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wrecks := func(tag string) []string {
		img := encode(hexKey(tag+"x"), val("x", 50))
		badMagic := append([]byte("XFS1"), img[4:]...)
		longKey := frame.AppendHeader(nil, diskMagic, diskVersion)
		longKey = binary.LittleEndian.AppendUint32(longKey, 1000)
		return []string{
			plant(hexKey(tag+"magic"), badMagic),
			plant(hexKey(tag+"short"), append(frame.AppendHeader(nil, diskMagic, diskVersion), 1, 0)),
			plant(hexKey(tag+"long"), append(longKey, "abc"...)),
		}
	}
	check := func(d *Disk, corrupt int64, planted []string) {
		t.Helper()
		want := Stats{Entries: len(good), Corrupt: corrupt}
		for _, v := range good {
			want.Bytes += int64(len(v))
		}
		keys, err := d.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st != want {
			t.Errorf("Stats = %+v, want %+v", st, want)
		}
		if len(keys) != len(good) {
			t.Errorf("Keys = %q, want the %d good keys", keys, len(good))
		}
		for _, k := range keys {
			if _, ok := good[k]; !ok {
				t.Errorf("Keys holds %q", k)
			}
		}
		for _, p := range planted {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupt file %s not deleted", filepath.Base(p))
			}
		}
	}

	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	write(d)
	d.Close()
	planted := wrecks("open")
	d2, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	check(d2, 3, planted)
	check(d2, 6, wrecks("audit"))
}
