package collector_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/trace"
	"perflow/internal/workloads"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/collect_digests.txt")

// digestWriter feeds fixed-width little-endian fields into a hash.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}
func (d *digestWriter) i64(x int64)   { d.u64(uint64(x)) }
func (d *digestWriter) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digestWriter) str(s string) {
	d.i64(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digestWriter) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:16]) }

// runDigest hashes every field of a recorded run: shape, calling-context
// tree, every rank's events, sync edges, finishing times and rank status
// (a nil status and an all-clean one hash differently).
func runDigest(r *trace.Run) string {
	d := &digestWriter{h: sha256.New()}
	d.i64(int64(r.NRanks))
	d.i64(int64(r.ThreadsPerRank))
	d.i64(int64(r.CCT.Len()))
	for c := 0; c < r.CCT.Len(); c++ {
		d.i64(int64(r.CCT.Parent(trace.CtxID(c))))
		d.i64(int64(r.CCT.Node(trace.CtxID(c))))
	}
	d.i64(int64(len(r.Events)))
	for _, evs := range r.Events {
		d.i64(int64(len(evs)))
		for i := range evs {
			e := &evs[i]
			d.i64(int64(e.Rank))
			d.i64(int64(e.Thread))
			d.i64(int64(e.Kind))
			d.i64(int64(e.Node))
			d.i64(int64(e.Ctx))
			d.f64(e.Start)
			d.f64(e.End)
			d.f64(e.Wait)
			d.i64(int64(e.Op))
			d.i64(int64(e.Peer))
			d.f64(e.Bytes)
			d.i64(int64(e.Count))
		}
	}
	d.i64(int64(len(r.Syncs)))
	for _, s := range r.Syncs {
		d.i64(int64(s.Kind))
		d.i64(int64(s.SrcRank))
		d.i64(int64(s.DstRank))
		d.i64(int64(s.SrcThread))
		d.i64(int64(s.DstThread))
		d.i64(int64(s.SrcNode))
		d.i64(int64(s.DstNode))
		d.f64(s.Time)
		d.f64(s.Wait)
		d.f64(s.Bytes)
		d.str(s.Lock)
	}
	d.i64(int64(len(r.Elapsed)))
	for _, t := range r.Elapsed {
		d.f64(t)
	}
	if r.Status == nil {
		d.i64(-1)
	} else {
		d.i64(int64(len(r.Status)))
	}
	for _, s := range r.Status {
		for _, b := range []bool{s.Crashed, s.Stalled, s.Salvaged} {
			if b {
				d.i64(1)
			} else {
				d.i64(0)
			}
		}
		d.f64(s.CrashTime)
		d.f64(s.StallTime)
		d.str(s.StallOp)
		d.i64(int64(s.DroppedMsgs))
		d.i64(int64(s.LostEvents))
		d.f64(s.SlowFactor)
	}
	return d.sum()
}

// writerDigest hashes what write serializes.
func writerDigest(t *testing.T, write func(h hash.Hash) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// collectionDigest collects p under opts and renders one digest line: the
// run, then both serialized PAG views, or the collection error.
func collectionDigest(t *testing.T, p *ir.Program, opts collector.Options) string {
	t.Helper()
	res, err := collector.CollectCtx(context.Background(), p, opts)
	if err != nil {
		return "error: " + err.Error()
	}
	td := writerDigest(t, func(h hash.Hash) error { _, err := res.TopDown.G.WriteTo(h); return err })
	pv := writerDigest(t, func(h hash.Hash) error { _, err := res.Parallel.G.WriteTo(h); return err })
	return fmt.Sprintf("run=%s topdown=%s parallel=%s", runDigest(res.Run), td, pv)
}

// digestSendrecv exercises the Sendrecv expansion and request names reused
// across iterations, which no registry workload or example program uses.
const digestSendrecv = `program sendrecv
func main file sr.c line 1
  loop steps line 2 trips 4 comm-per-iter
    compute work line 3 cost 50/P add 0:20
    mpi sendrecv line 4 to right bytes 8192 tag 3
    mpi sendrecv line 5 to left bytes 64 tag 4
    mpi isend line 6 to right bytes 128 tag 5 req a
    mpi irecv line 7 to left bytes 128 tag 5 req a
    mpi wait line 8 req a
    mpi wait line 9 req a
  end
end
`

type digestCase struct {
	name    string
	program func() (*ir.Program, error)
	opts    collector.Options
}

func dslProgram(src string) func() (*ir.Program, error) {
	return func() (*ir.Program, error) { return ir.ParseString(src) }
}

func dslFile(name string) func() (*ir.Program, error) {
	return func() (*ir.Program, error) {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "dsl", name+".pfl"))
		if err != nil {
			return nil, err
		}
		return ir.ParseString(string(src))
	}
}

func registryProgram(name string) func() (*ir.Program, error) {
	return func() (*ir.Program, error) { return workloads.Get(name) }
}

// digestCases lists every pinned collection: each registry workload, each
// example DSL program and a Sendrecv program at 1, 3, 8 and 64 ranks; vite
// at 8 ranks × 4 threads; and crashed, slowed and lossy runs kept as
// partial data.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	progs := map[string]func() (*ir.Program, error){"dsl:sendrecv": dslProgram(digestSendrecv)}
	names := []string{"dsl:sendrecv"}
	for _, n := range workloads.Names() {
		progs[n] = registryProgram(n)
		names = append(names, n)
	}
	for _, n := range []string{"gpu_overlap", "halo2d", "pipeline", "threads_contention"} {
		progs["dsl:"+n] = dslFile(n)
		names = append(names, "dsl:"+n)
	}
	var cases []digestCase
	for _, n := range names {
		for _, r := range []int{1, 3, 8, 64} {
			cases = append(cases, digestCase{fmt.Sprintf("%s/r%d", n, r), progs[n], collector.Options{Ranks: r}})
		}
	}
	cases = append(cases, digestCase{"vite/r8t4", progs["vite"], collector.Options{Ranks: 8, Threads: 4}})
	for _, f := range []struct{ name, spec string }{
		{"crash", "crash:rank=5,at=400"},
		{"slow", "slow:rank=2,factor=3"},
		{"drop", "seed=7;drop:rank=1,after=100,prob=0.5"},
	} {
		plan, err := mpisim.ParseFaultPlan(f.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"cg", "dsl:halo2d"} {
			cases = append(cases, digestCase{fmt.Sprintf("%s/r8+%s", n, f.name), progs[n],
				collector.Options{Ranks: 8, Faults: plan, AllowPartial: true}})
		}
	}
	return cases
}

// TestCollectionDigests pins the bytes of every collection: the recorded
// run and both serialized PAG views must hash exactly as in
// testdata/collect_digests.txt, at Parallelism 1 and 4 alike.
func TestCollectionDigests(t *testing.T) {
	var b strings.Builder
	for _, c := range digestCases(t) {
		p, err := c.program()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var line string
		for _, par := range []int{1, 4} {
			opts := c.opts
			opts.Parallelism = par
			got := collectionDigest(t, p, opts)
			if par == 1 {
				line = got
			} else if got != line {
				t.Errorf("%s: Parallelism 4 gives %s, Parallelism 1 gives %s", c.name, got, line)
			}
		}
		fmt.Fprintf(&b, "%s %s\n", c.name, line)
	}
	checkDigests(t, "collect_digests.txt", b.String())
}

// TestCollectionErrorStrings pins the exact diagnostics of a deadlock, an
// unresolvable peer (plain and Sendrecv) and a flattened-operation overrun.
func TestCollectionErrorStrings(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cfg  mpisim.Config
		want string
	}{
		{
			name: "deadlock",
			src:  "program dl\nfunc main file ring.c line 1\n  compute work line 3 cost 10\n  mpi send line 5 to right bytes 65536 tag 7\n  mpi recv line 6 to left bytes 65536 tag 7\nend\n",
			cfg:  mpisim.Config{NRanks: 6},
			want: "mpisim: deadlock with 6 blocked ranks: rank 0 at MPI_Send (ring.c:5); rank 1 at MPI_Send (ring.c:5); rank 2 at MPI_Send (ring.c:5); rank 3 at MPI_Send (ring.c:5); ... (2 more)",
		},
		{
			name: "unresolvable-peer",
			src:  "program up\nfunc main file up.c line 1\n  mpi send line 2 to rank5 bytes 8 tag 1\nend\n",
			cfg:  mpisim.Config{NRanks: 3},
			want: "rank 0: mpisim: rank 0: MPI_Send at up.c:2 has no resolvable peer",
		},
		{
			name: "unresolvable-sendrecv-peer",
			src:  "program us\nfunc main file us.c line 1\n  compute w line 2 cost 1\n  mpi sendrecv line 3 to rank5 bytes 8 tag 1\nend\n",
			cfg:  mpisim.Config{NRanks: 3},
			want: "rank 0: mpisim: rank 0: MPI_Sendrecv at us.c:3 has no resolvable peer",
		},
		{
			name: "max-ops",
			src:  "program mo\nfunc main file mo.c line 1\n  loop l line 2 trips 5 comm-per-iter\n    compute w line 3 cost 1\n    mpi sendrecv line 4 to right bytes 8 tag 1\n  end\nend\n",
			cfg:  mpisim.Config{NRanks: 2, MaxOpsPerRank: 12},
			want: "rank 0: mpisim: rank 0 exceeds 12 flattened operations (runaway loop?)",
		},
	}
	for _, c := range cases {
		p, err := ir.ParseString(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, err = mpisim.Run(p, c.cfg)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// checkDigests compares got against testdata/name, or rewrites the file
// under -update-digests.
func checkDigests(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-digests to create)", err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wl) || g != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
