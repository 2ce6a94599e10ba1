package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"perflow/internal/frame"
)

// Disk is the shared on-disk store: one content-addressed file per entry,
// fanned out over 256 two-hex-digit subdirectories. Because the file name
// is a pure function of the key, several server replicas pointed at the
// same directory share hits, and a restarted server finds its warm set on
// the next Get. Writes go through frame.WriteFile, so an acknowledged
// result survives a crash.
//
// A file is an internal/frame header (magic "PFS1", version 2), a key
// header and the value. A file whose headers fail (an older layout, a torn
// header, a foreign file squatting on the path) is deleted and read as a
// miss, so the caller recomputes. The value is the caller's to check: the
// serve cache's envelope is one CRC-checked record, the one check that
// also sees a value torn above this store. Genuine I/O failures (as
// opposed to misses) are surfaced as wrapped ErrUnavailable so a breaker
// in front can degrade instead of thrashing.
type Disk struct {
	dir    string
	budget int64

	mu    sync.Mutex
	seq   uint64
	bytes int64
	index map[string]*diskEntry

	hits, misses, evictions, corrupt, errors int64
}

type diskEntry struct {
	size int64 // payload bytes (excluding header and key)
	seq  uint64
}

// diskMagic and diskVersion mark a store file. Version 1 files carried a
// CRC where the version now sits, so they read as an unknown version.
var diskMagic = [4]byte{'P', 'F', 'S', '1'}

const diskVersion = 2

// NewDisk opens (creating if needed) a disk store rooted at dir with the
// given payload byte budget. Orphaned temp files from a previous process
// crashing mid-commit are swept first — without the sweep, a fully
// written temp file that never got renamed could be indexed at a path no
// Get will ever probe. Then existing entries are indexed; invalid or
// corrupt files found during the scan are deleted.
func NewDisk(dir string, budget int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{dir: dir, budget: budget, index: make(map[string]*diskEntry)}
	frame.SweepTemp(dir)
	if err := d.rescan(); err != nil {
		return nil, err
	}
	return d, nil
}

// path maps a key to its file: the key itself when it is already a
// 64-hex content address (the serve cache key shape), else the hex SHA-256
// of the key — deterministic either way, so every replica computes the
// same path.
func (d *Disk) path(key string) string {
	name := key
	if !isHex64(key) {
		sum := sha256.Sum256([]byte(key))
		name = hex.EncodeToString(sum[:])
	}
	return filepath.Join(d.dir, name[:2], name)
}

func isHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encode renders the file image: frame header | keylen uint32 | key | val.
func encode(key string, val []byte) []byte {
	buf := frame.AppendHeader(make([]byte, 0, frame.HeaderLen+4+len(key)+len(val)), diskMagic, diskVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	return append(buf, val...)
}

// decode checks a file image's headers and returns its key and value.
func decode(buf []byte) (key string, val []byte, ok bool) {
	rest, err := frame.ReadHeader(buf, diskMagic, diskVersion)
	if err != nil || len(rest) < 4 {
		return "", nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(rest))
	if 4+n > uint64(len(rest)) {
		return "", nil, false
	}
	return string(rest[4 : 4+n]), rest[4+n:], true
}

// Get reads and validates the entry's file. Unknown keys probe the
// directory anyway, so a value written by another replica (or a previous
// process) is adopted on first access. A missing file is a clean miss; any
// other read failure is a backend error.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	buf, err := os.ReadFile(d.path(key))
	if err != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.misses++
		d.dropLocked(key)
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		d.errors++
		return nil, false, fmt.Errorf("%w: read %s: %v", ErrUnavailable, key[:min(8, len(key))], err)
	}
	fileKey, val, ok := decode(buf)
	if !ok || fileKey != key {
		// A torn header, an older layout, or a foreign file squatting on
		// the path: discard and miss, never serve it.
		os.Remove(d.path(key))
		d.mu.Lock()
		d.corrupt++
		d.misses++
		d.dropLocked(key)
		d.mu.Unlock()
		return nil, false, nil
	}
	d.mu.Lock()
	d.hits++
	d.touchLocked(key, int64(len(val)))
	d.mu.Unlock()
	return val, true, nil
}

// Put durably writes the entry (frame.WriteFile), then evicts
// least-recently-used entries past the byte budget. The file write happens
// outside the index lock so concurrent Puts overlap their I/O. A failed
// write surfaces as a backend error — callers (the breaker, the retry
// engine) decide whether to fall back or retry.
func (d *Disk) Put(key string, val []byte) error {
	if int64(len(val)) > d.budget {
		return nil
	}
	if err := frame.WriteFile(d.path(key), encode(key, val)); err != nil {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return fmt.Errorf("%w: write %s: %v", ErrUnavailable, key[:min(8, len(key))], err)
	}
	d.mu.Lock()
	d.touchLocked(key, int64(len(val)))
	victims := d.evictLocked(key)
	d.mu.Unlock()
	for _, v := range victims {
		os.Remove(d.path(v))
	}
	return nil
}

// Delete removes the entry and its file.
func (d *Disk) Delete(key string) error {
	err := os.Remove(d.path(key))
	d.mu.Lock()
	d.dropLocked(key)
	d.mu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return fmt.Errorf("%w: delete: %v", ErrUnavailable, err)
	}
	return nil
}

// Keys rescans the directory (adopting entries other replicas wrote) and
// lists every resident key.
func (d *Disk) Keys() ([]string, error) {
	if err := d.rescan(); err != nil {
		return nil, fmt.Errorf("%w: rescan: %v", ErrUnavailable, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.index))
	for k := range d.index {
		keys = append(keys, k)
	}
	return keys, nil
}

// Stats snapshots the counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Entries:   len(d.index),
		Bytes:     d.bytes,
		Hits:      d.hits,
		Misses:    d.misses,
		Evictions: d.evictions,
		Corrupt:   d.corrupt,
		Errors:    d.errors,
	}
}

// Close releases the in-memory index; files stay for the next open.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.index = make(map[string]*diskEntry)
	d.bytes = 0
	return nil
}

// touchLocked records or refreshes an entry's size and recency.
func (d *Disk) touchLocked(key string, size int64) {
	if e, ok := d.index[key]; ok {
		d.bytes += size - e.size
		e.size = size
		d.seq++
		e.seq = d.seq
		return
	}
	d.seq++
	d.index[key] = &diskEntry{size: size, seq: d.seq}
	d.bytes += size
}

// dropLocked forgets an entry without touching its file.
func (d *Disk) dropLocked(key string) {
	if e, ok := d.index[key]; ok {
		d.bytes -= e.size
		delete(d.index, key)
	}
}

// evictLocked drops least-recently-used entries (never keep, the entry
// just written) until the budget holds, returning the keys whose files the
// caller must remove outside the lock.
func (d *Disk) evictLocked(keep string) []string {
	var victims []string
	for d.bytes > d.budget {
		oldKey, oldSeq := "", uint64(0)
		for k, e := range d.index {
			if k == keep {
				continue
			}
			if oldKey == "" || e.seq < oldSeq {
				oldKey, oldSeq = k, e.seq
			}
		}
		if oldKey == "" {
			break
		}
		d.dropLocked(oldKey)
		d.evictions++
		victims = append(victims, oldKey)
	}
	return victims
}

// rescan walks the store directory, indexing every entry file from its
// headers alone: the value is neither read nor checked here (Get checks
// the headers again, and the caller the value), so a rescan costs two
// small reads a file, not the store's size. Files whose headers fail are
// deleted; already-indexed keys keep their recency. In-flight temp files
// of concurrent writers are skipped — they are either about to be renamed
// into place or are a crash's orphans for the next open's sweep.
func (d *Disk) rescan() error {
	return filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || strings.HasPrefix(de.Name(), frame.TempPrefix) {
			return nil // a vanished file or unreadable subdir is not fatal
		}
		key, size, ok, rerr := readHeaders(path)
		if rerr != nil {
			return nil
		}
		if !ok {
			os.Remove(path)
			d.mu.Lock()
			d.corrupt++
			d.mu.Unlock()
			return nil
		}
		d.mu.Lock()
		if _, ok := d.index[key]; !ok {
			d.index[key] = &diskEntry{size: size}
			d.bytes += size
		}
		d.mu.Unlock()
		return nil
	})
}

// readHeaders reads an entry file's frame and key headers and returns its
// key and value size, the file's size less the headers: the outcome decode
// gives for the whole file. ok is false when the headers do not decode;
// err reports a file that could not be read.
func readHeaders(path string) (key string, size int64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", 0, false, err
	}
	var hdr [frame.HeaderLen + 4]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return "", 0, false, shortIsDamage(err)
	}
	rest, herr := frame.ReadHeader(hdr[:], diskMagic, diskVersion)
	if herr != nil {
		return "", 0, false, nil
	}
	n := int64(binary.LittleEndian.Uint32(rest))
	if int64(len(hdr))+n > st.Size() {
		return "", 0, false, nil
	}
	kb := make([]byte, n)
	if _, err := io.ReadFull(f, kb); err != nil {
		return "", 0, false, shortIsDamage(err)
	}
	return string(kb), st.Size() - int64(len(hdr)) - n, true, nil
}

// shortIsDamage maps a read that ran out of file to nil (damage the
// caller sees as ok == false) and passes any other error through.
func shortIsDamage(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}
