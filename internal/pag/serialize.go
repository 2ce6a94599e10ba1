package pag

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"perflow/internal/graph"
	"perflow/internal/ir"
)

// PAG persistence: the paper stores PAGs in igraph so analyses can run
// offline, decoupled from collection. Save/Load wrap the graph package's
// compact binary format with a small header carrying the view kind and
// scale, plus the vertex->IR-node mapping so projections keep working
// after a round trip (the Program itself is not persisted; reattach it via
// the load parameter when projections into a fresh top-down view are
// needed).

const (
	pagMagic   = 0x50414747 // "PAGG"
	pagVersion = 1
	// maxNodeID bounds the IR node IDs of a file: they are dense program
	// indices, and the flow index is sized by the largest.
	maxNodeID = 1<<22 - 1
)

// Save writes the PAG to w.
func (p *PAG) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pagMagic)
	binary.LittleEndian.PutUint32(hdr[4:], pagVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.View))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.NRanks))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(p.NThreads))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(p.nodeOf)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for _, n := range p.nodeOf {
		binary.LittleEndian.PutUint32(buf[:], uint32(n))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	if _, err := p.G.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes the PAG to path.
func (p *PAG) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Save(f)
}

// Load reads a PAG previously written with Save. prog may be nil; when
// given, the node mapping is revalidated against it and VertexOf lookups
// work for top-down views.
func Load(r io.Reader, prog *ir.Program) (*PAG, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pagMagic {
		return nil, errors.New("pag: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != pagVersion {
		return nil, fmt.Errorf("pag: unsupported version %d", v)
	}
	p := &PAG{
		Prog:     prog,
		View:     View(binary.LittleEndian.Uint32(hdr[8:])),
		NRanks:   int(binary.LittleEndian.Uint32(hdr[12:])),
		NThreads: int(binary.LittleEndian.Uint32(hdr[16:])),
	}
	nNodes := binary.LittleEndian.Uint32(hdr[20:])
	if nNodes > 1<<28 {
		return nil, errors.New("pag: implausible node-map size")
	}
	// The count is untrusted: grow by append as entries arrive.
	p.nodeOf = make([]ir.NodeID, 0, min(nNodes, 1<<16))
	var buf [4]byte
	for i := uint32(0); i < nNodes; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, err
		}
		n := ir.NodeID(int32(binary.LittleEndian.Uint32(buf[:])))
		if n < ir.NoNode || n > maxNodeID {
			return nil, fmt.Errorf("pag: node id %d out of range", n)
		}
		p.nodeOf = append(p.nodeOf, n)
	}
	g, err := graph.ReadFrom(br)
	if err != nil {
		return nil, err
	}
	p.G = g
	if len(p.nodeOf) != g.NumVertices() {
		return nil, fmt.Errorf("pag: node map (%d) does not cover graph (%d vertices)",
			len(p.nodeOf), g.NumVertices())
	}
	// Rebuild the reverse/flow indices from the persisted data.
	if p.View == TopDown && prog != nil {
		p.byNode = make([]graph.VertexID, prog.NumNodes())
		for i := range p.byNode {
			p.byNode[i] = graph.NoVertex
		}
		for v, n := range p.nodeOf {
			if n >= 0 && int(n) < len(p.byNode) {
				p.byNode[n] = graph.VertexID(v)
			}
		}
	}
	if p.View == Parallel {
		p.indexFlows()
	}
	return p, nil
}

// LoadFile reads a PAG from path.
func LoadFile(path string, prog *ir.Program) (*PAG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, prog)
}
