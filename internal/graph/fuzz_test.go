package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// hostileHeader returns a 16-byte PAG1 input claiming count elements at
// the given u32 word (2 = string count, 3 = vertex count when there are no
// strings) with no data behind it.
func hostileHeader(word int, count uint32) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint32(b[0:], serialMagic)
	binary.LittleEndian.PutUint32(b[4:], serialVersion)
	binary.LittleEndian.PutUint32(b[4*word:], count)
	return b
}

// TestReadFromHostileCounts pins that counts in the input bound only how
// far ReadFrom reads, never how much it allocates up front: a few bytes
// claiming 200 million vertices, strings or vector elements are rejected as
// truncated without a large allocation.
func TestReadFromHostileCounts(t *testing.T) {
	oneVertexHugeVec := func() []byte {
		var b bytes.Buffer
		w := func(x uint32) { _ = binary.Write(&b, binary.LittleEndian, x) }
		w(serialMagic)
		w(serialVersion)
		w(1) // one string
		w(1)
		b.WriteString("v")
		w(1)           // one vertex
		w(0)           // name "v"
		w(0)           // label
		w(0)           // no scalar metrics
		w(1)           // one vector metric
		w(0)           // key "v"
		w(200_000_000) // claimed length, no data
		return b.Bytes()
	}
	cases := map[string][]byte{
		"vertices": hostileHeader(3, 200_000_000),
		"strings":  hostileHeader(2, 200_000_000),
		"vector":   oneVertexHugeVec(),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: truncated input accepted", name)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 32<<20 {
			t.Errorf("%s: ReadFrom of %d bytes allocated %d MB", name, len(data), d>>20)
		}
	}
}

// FuzzReadFrom feeds arbitrary bytes to ReadFrom. Rejected input must
// fail cleanly; accepted input must re-encode to a stable byte form (a
// second decode/encode cycle reproduces the first encoding exactly). The
// seed corpus in testdata/fuzz/FuzzReadFrom holds small serialized PAGs.
func FuzzReadFrom(f *testing.F) {
	f.Add(hostileHeader(3, 200_000_000))
	f.Add(hostileHeader(2, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatalf("ReadFrom returned both a graph and error %v", err)
			}
			return
		}
		var first bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadFrom(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an encoding failed: %v", err)
		}
		var second bytes.Buffer
		if _, err := g2.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encoding is not stable across a decode/encode cycle")
		}
	})
}
