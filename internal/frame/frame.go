// Package frame is the one codec for durable bytes: the job journal, the
// disk store's files and the serve cache's envelope all share its header,
// its record layout and its rule for torn tails, and the journal and the
// disk store share its durable file writer.
//
//	header:  magic (4 bytes) | version uint32
//	record:  length uint32 | crc32(payload) uint32 | payload
//
// Integers are little-endian; the CRC is IEEE. Users differ in what their
// payloads mean, never in how the bytes are checked.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const (
	// HeaderLen is the size of the magic and version header.
	HeaderLen = 8
	// RecordHeaderLen is the size of a record's length and CRC fields.
	RecordHeaderLen = 8
)

var (
	// ErrShort reports input too short to hold a header.
	ErrShort = errors.New("frame: short header")
	// ErrMagic reports a header whose magic belongs to another format.
	ErrMagic = errors.New("frame: bad magic")
	// ErrVersion reports a header of the right format but another version.
	ErrVersion = errors.New("frame: unsupported version")
	// ErrTorn reports a record cut short by the end of the input.
	ErrTorn = errors.New("frame: torn record")
	// ErrChecksum reports a record whose payload fails its CRC.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// AppendHeader appends the magic and version header to dst.
func AppendHeader(dst []byte, magic [4]byte, version uint32) []byte {
	dst = append(dst, magic[:]...)
	return binary.LittleEndian.AppendUint32(dst, version)
}

// ReadHeader checks that buf starts with the header of magic and version
// and returns the bytes after it.
func ReadHeader(buf []byte, magic [4]byte, version uint32) ([]byte, error) {
	switch {
	case len(buf) < HeaderLen:
		return nil, ErrShort
	case [4]byte(buf) != magic:
		return nil, ErrMagic
	case binary.LittleEndian.Uint32(buf[4:]) != version:
		return nil, ErrVersion
	}
	return buf[HeaderLen:], nil
}

// AppendRecord appends one record to dst whose payload is the
// concatenation of parts.
func AppendRecord(dst []byte, parts ...[]byte) []byte {
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// Reader walks the records of a buffer without copying or allocating:
// every payload it returns is a slice of that buffer, so a declared length
// never sizes an allocation.
type Reader struct {
	buf      []byte
	declared int
}

// NewReader returns a Reader over records, the bytes after a header.
func NewReader(records []byte) Reader {
	return Reader{buf: records}
}

// Next returns the next record's payload, or io.EOF at the end of the
// input. A damaged record comes back with the bytes it has and the reason:
//   - ErrChecksum: the whole declared payload, which fails its CRC. Its
//     length still delimits it, so a caller may go on reading.
//   - ErrTorn: the part of the payload the input holds (nothing when the
//     record's own header is cut). Every later call returns io.EOF.
//
// A caller that trusts nothing after a damaged record stops at the first
// error.
func (r *Reader) Next() ([]byte, error) {
	r.declared = -1
	if len(r.buf) == 0 {
		return nil, io.EOF
	}
	if len(r.buf) < RecordHeaderLen {
		r.buf = nil
		return nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(r.buf)
	crc := binary.LittleEndian.Uint32(r.buf[4:])
	r.declared = int(n)
	body := r.buf[RecordHeaderLen:]
	if uint64(n) > uint64(len(body)) {
		r.buf = nil
		return body, ErrTorn
	}
	payload := body[:n:n]
	r.buf = body[n:]
	if crc32.ChecksumIEEE(payload) != crc {
		return payload, ErrChecksum
	}
	return payload, nil
}

// Declared returns the payload length the last record's header declared,
// or -1 when Next found no record header. FuzzFrame checks a torn
// record's bounds through it.
func (r *Reader) Declared() int { return r.declared }

// TempPrefix marks the in-flight files of WriteFile. A crash between
// creating one and renaming it strands it, and SweepTemp reclaims it.
const TempPrefix = ".tmp-"

// WriteFile durably replaces path with data: it writes a temp file next to
// path, fsyncs it, renames it into place and fsyncs the directory. Without
// the directory sync the rename itself may not survive a crash. A crash at
// any point leaves either the old file or the new one, never a torn file
// under path: at worst a stranded temp file for SweepTemp.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// SweepTemp deletes every file under root whose name carries TempPrefix.
// Temp files live only inside a WriteFile call of a running process, so
// one found when a journal or store opens is a crash's orphan.
func SweepTemp(root string) {
	filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil // a vanished file or unreadable subdir is not fatal
		}
		if strings.HasPrefix(de.Name(), TempPrefix) {
			os.Remove(path)
		}
		return nil
	})
}
