package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

// image builds a framed buffer: the test header and one record per payload.
func image(payloads ...string) []byte {
	buf := AppendHeader(nil, testMagic, 7)
	for _, p := range payloads {
		buf = AppendRecord(buf, []byte(p))
	}
	return buf
}

// TestLayout pins the bytes: magic, version, then len | crc32 | payload,
// little-endian, the layout the PFJ1 journal has always written.
func TestLayout(t *testing.T) {
	got := image("hello")
	want := []byte{'T', 'E', 'S', 'T', 7, 0, 0, 0,
		5, 0, 0, 0, 0x86, 0xa6, 0x10, 0x36, 'h', 'e', 'l', 'l', 'o'}
	if !bytes.Equal(got, want) {
		t.Fatalf("image = % x\nwant    % x", got, want)
	}
	if split := AppendRecord(nil, []byte("he"), nil, []byte("llo")); !bytes.Equal(split, want[HeaderLen:]) {
		t.Errorf("record from parts = % x, want % x", split, want[HeaderLen:])
	}
}

func TestReadHeader(t *testing.T) {
	rest, err := ReadHeader(image("x"), testMagic, 7)
	if err != nil || len(rest) != RecordHeaderLen+1 {
		t.Fatalf("ReadHeader = %d bytes, %v", len(rest), err)
	}
	if _, err := ReadHeader([]byte("TEST\x07\x00\x00"), testMagic, 7); err != ErrShort {
		t.Errorf("7-byte header: err = %v, want ErrShort", err)
	}
	if _, err := ReadHeader(image("x"), [4]byte{'N', 'O', 'P', 'E'}, 7); err != ErrMagic {
		t.Errorf("foreign magic: err = %v, want ErrMagic", err)
	}
	if _, err := ReadHeader(image("x"), testMagic, 8); err != ErrVersion {
		t.Errorf("other version: err = %v, want ErrVersion", err)
	}
}

// readAll drains a Reader, returning the intact payloads and the error
// that ended the walk.
func readAll(body []byte) ([]string, error) {
	var got []string
	rd := NewReader(body)
	for {
		p, err := rd.Next()
		if err != nil {
			return got, err
		}
		got = append(got, string(p))
	}
}

// TestReaderTornAtEveryOffset cuts an image at every byte: the records
// wholly before the cut come back intact, a cut inside a record reads as
// ErrTorn, and nothing is ever read past the cut.
func TestReaderTornAtEveryOffset(t *testing.T) {
	payloads := []string{"first", "", "third record"}
	full := image(payloads...)
	ends := []int{HeaderLen}
	for _, p := range payloads {
		ends = append(ends, ends[len(ends)-1]+RecordHeaderLen+len(p))
	}
	for n := HeaderLen; n <= len(full); n++ {
		got, err := readAll(full[HeaderLen:n])
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= n {
			whole++
		}
		if len(got) != whole {
			t.Fatalf("cut %d: %d intact records, want %d", n, len(got), whole)
		}
		for i := range got {
			if got[i] != payloads[i] {
				t.Fatalf("cut %d: record %d = %q, want %q", n, i, got[i], payloads[i])
			}
		}
		wantErr := io.EOF
		if n != ends[whole] {
			wantErr = ErrTorn
		}
		if err != wantErr {
			t.Fatalf("cut %d: err = %v, want %v", n, err, wantErr)
		}
	}
}

// TestReaderTornPayloadAndDeclared checks a torn record hands over the
// bytes it has and the length its header declared.
func TestReaderTornPayloadAndDeclared(t *testing.T) {
	full := image("abcdef")
	rd := NewReader(full[HeaderLen : len(full)-2])
	p, err := rd.Next()
	if err != ErrTorn || string(p) != "abcd" || rd.Declared() != 6 {
		t.Fatalf("torn payload: %q, declared %d, %v", p, rd.Declared(), err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("after a torn record: %v, want io.EOF", err)
	}
	rd = NewReader(full[HeaderLen : HeaderLen+5])
	if _, err := rd.Next(); err != ErrTorn || rd.Declared() != -1 {
		t.Errorf("torn record header: declared %d, %v", rd.Declared(), err)
	}
}

// TestReaderChecksumContinues flips a payload byte: that record reads as
// ErrChecksum with its whole payload, and the record after it is intact.
func TestReaderChecksumContinues(t *testing.T) {
	full := image("one", "two", "three")
	full[HeaderLen+RecordHeaderLen+3+RecordHeaderLen] ^= 0x20 // 't' of "two"
	rd := NewReader(full[HeaderLen:])
	if p, err := rd.Next(); err != nil || string(p) != "one" {
		t.Fatalf("record 0: %q, %v", p, err)
	}
	if p, err := rd.Next(); err != ErrChecksum || string(p) != "Two" {
		t.Fatalf("record 1: %q, %v, want the flipped payload and ErrChecksum", p, err)
	}
	if p, err := rd.Next(); err != nil || string(p) != "three" {
		t.Fatalf("record 2: %q, %v", p, err)
	}
}

// walk drains a Reader without keeping anything and returns the error that
// ended the walk.
func walk(body []byte) error {
	rd := NewReader(body)
	for {
		if _, err := rd.Next(); err != nil {
			return err
		}
	}
}

// TestReaderDoesNotAllocate pins the allocation contract: walking records
// allocates nothing, whatever lengths they declare.
func TestReaderDoesNotAllocate(t *testing.T) {
	full := image("a", "bb", "ccc")
	hostile := append(image("a"), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	for _, buf := range [][]byte{full, hostile} {
		if n := testing.AllocsPerRun(100, func() { walk(buf[HeaderLen:]) }); n != 0 {
			t.Errorf("walking %d bytes allocated %v times", len(buf), n)
		}
	}
}

func TestWriteFileAndSweepTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "f")
	for _, data := range []string{"old", "new contents"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("after WriteFile(%q): %q, %v", data, got, err)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("WriteFile left %d files beside the target: %v", len(entries), err)
	}

	orphans := []string{filepath.Join(dir, TempPrefix+"1"), filepath.Join(dir, "sub", TempPrefix+"wal-2")}
	for _, o := range orphans {
		if err := os.WriteFile(o, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	SweepTemp(dir)
	for _, o := range orphans {
		if _, err := os.Stat(o); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the sweep", o)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("sweep removed a real file: %v", err)
	}
}

// FuzzFrame asserts the codec's contract on arbitrary bytes, taking the
// first four as the magic: reading never panics, never allocates (so no
// declared length can size an allocation), never returns bytes past the
// end of the input, and an input that reads cleanly to its end re-encodes
// to the same bytes. The checked-in corpus holds TRC1 and version 1 TRC2
// traces, a PFJ1 journal and a serve cache envelope.
func FuzzFrame(f *testing.F) {
	valid := image("first", "", "third record")
	flipped := append([]byte(nil), valid...)
	flipped[HeaderLen+RecordHeaderLen] ^= 0xff
	hostile := func(n uint32) []byte { // a length with no data behind it
		return append(image("a"), byte(n), byte(n>>8), byte(n>>16), byte(n>>24), 0, 0, 0, 0)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(image())                                     // header only
	f.Add(valid[:len(valid)-5])                        // torn mid-payload
	f.Add(valid[:HeaderLen+RecordHeaderLen-3])         // torn record header
	f.Add(hostile(0xffffffff))                         // largest declared length
	f.Add(hostile(1 << 31))                            // length past int32
	f.Add(hostile(1 << 19))                            // plausible length, no data
	f.Add(flipped)                                     // checksum mismatch, then intact records
	f.Add(append([]byte(nil), valid[:HeaderLen-1]...)) // magic and part of a version
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < HeaderLen {
			if _, err := ReadHeader(data, testMagic, 7); err != ErrShort {
				t.Fatalf("%d-byte input: err = %v, want ErrShort", len(data), err)
			}
			return
		}
		magic, version := [4]byte(data), binary.LittleEndian.Uint32(data[4:])
		body, err := ReadHeader(data, magic, version)
		if err != nil {
			t.Fatalf("ReadHeader with the input's own header: %v", err)
		}
		if n := testing.AllocsPerRun(1, func() { walk(body) }); n != 0 {
			t.Fatalf("walking %d bytes allocated %v times", len(body), n)
		}
		re := AppendHeader(nil, magic, version)
		rd := NewReader(body)
		consumed, clean := 0, true
		for {
			p, err := rd.Next()
			if err == io.EOF {
				break
			}
			if rd.Declared() >= 0 {
				consumed += RecordHeaderLen
			}
			if len(p) > len(body)-consumed || (rd.Declared() >= 0 && len(p) > rd.Declared()) {
				t.Fatalf("payload of %d bytes past the input (declared %d, %d left)", len(p), rd.Declared(), len(body)-consumed)
			}
			consumed += len(p)
			if err == ErrTorn {
				if _, err := rd.Next(); err != io.EOF {
					t.Fatalf("read past a torn record: %v", err)
				}
				return
			}
			if err == ErrChecksum {
				clean = false // the length still delimits it: read on
				continue
			}
			if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
			re = AppendRecord(re, p)
		}
		if clean && !bytes.Equal(re, data) {
			t.Fatalf("clean decode re-encodes differently:\n got % x\nwant % x", re, data)
		}
	})
}
