package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func demoProgram(t *testing.T) *Program {
	t.Helper()
	p, err := NewBuilder("demo").
		Meta(2.0, 97_000).
		Func("main", "main.c", 1, func(b *Body) {
			b.Compute("init", 3, Const(100))
			b.Loop("loop_1", 5, Const(10), func(l *Body) {
				l.Call("work", 6)
				l.Isend(7, Peer{Kind: PeerRight}, Const(1024), 1, "r1")
				l.Irecv(8, Peer{Kind: PeerLeft}, Const(1024), 1, "r2")
				l.Waitall(9)
			})
			b.Allreduce(12, Const(8))
		}).
		Func("work", "work.c", 1, func(b *Body) {
			b.Compute("kernel", 2, Expr{Base: 1000, Scaling: ScaleInvP})
		}).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderAndFinalize(t *testing.T) {
	p := demoProgram(t)
	if !p.Finalized() {
		t.Fatal("program not finalized")
	}
	if p.Function("main") == nil || p.Function("work") == nil {
		t.Fatal("function index broken")
	}
	if p.Function("nope") != nil {
		t.Fatal("lookup of missing function should be nil")
	}
	st := p.CollectStats()
	if st.Functions != 2 || st.Loops != 1 || st.Calls != 1 || st.CommOps != 4 || st.Computes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Total != p.NumNodes() {
		t.Errorf("Total %d != NumNodes %d", st.Total, p.NumNodes())
	}
}

func TestNodeIDsDenseAndResolvable(t *testing.T) {
	p := demoProgram(t)
	seen := map[NodeID]bool{}
	p.Walk(func(n, _ Node) {
		id := n.base().ID()
		if id == NoNode {
			t.Fatalf("node %q has no ID", n.base().Name)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		if p.Node(id) != n {
			t.Fatalf("Node(%d) does not round-trip", id)
		}
	})
	if len(seen) != p.NumNodes() {
		t.Errorf("walked %d nodes, NumNodes %d", len(seen), p.NumNodes())
	}
	if p.Node(NoNode) != nil || p.Node(NodeID(p.NumNodes())) != nil {
		t.Error("out-of-range Node lookup should be nil")
	}
}

func TestWalkParentTracking(t *testing.T) {
	p := demoProgram(t)
	parents := map[string]string{}
	p.Walk(func(n, parent Node) {
		if parent != nil {
			parents[n.base().Name] = parent.base().Name
		}
	})
	if parents["loop_1"] != "main" {
		t.Errorf("loop_1 parent = %q", parents["loop_1"])
	}
	if parents["MPI_Waitall"] != "loop_1" {
		t.Errorf("MPI_Waitall parent = %q", parents["MPI_Waitall"])
	}
}

func TestDebugString(t *testing.T) {
	p := demoProgram(t)
	f := p.Function("work")
	if f.Debug() != "work.c:1" {
		t.Errorf("Debug = %q", f.Debug())
	}
	var noFile Info
	if noFile.Debug() != "" {
		t.Errorf("empty debug = %q", noFile.Debug())
	}
}

func TestValidateUndefinedCallee(t *testing.T) {
	_, err := NewBuilder("bad").
		Func("main", "m.c", 1, func(b *Body) {
			b.Call("ghost", 2)
		}).Build()
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("expected undefined-callee error, got %v", err)
	}
}

func TestValidateExternalAndIndirectOK(t *testing.T) {
	_, err := NewBuilder("ok").
		Func("main", "m.c", 1, func(b *Body) {
			b.ExternalCall("memcpy", 2, Const(1))
			b.IndirectCall("fnptr", 3)
		}).Build()
	if err != nil {
		t.Errorf("external/indirect calls should validate: %v", err)
	}
}

func TestValidateMissingEntry(t *testing.T) {
	_, err := NewBuilder("noentry").
		Func("helper", "h.c", 1, nil).Build()
	if err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("expected missing-entry error, got %v", err)
	}
}

func TestValidateDuplicateFunction(t *testing.T) {
	_, err := NewBuilder("dup").
		Func("main", "m.c", 1, nil).
		Func("main", "m.c", 9, nil).Build()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate error, got %v", err)
	}
}

func TestValidateCommWithoutPeer(t *testing.T) {
	_, err := NewBuilder("nopeer").
		Func("main", "m.c", 1, func(b *Body) {
			b.Send(2, Peer{}, Const(8), 0)
		}).Build()
	if err == nil || !strings.Contains(err.Error(), "no peer") {
		t.Errorf("expected no-peer error, got %v", err)
	}
}

func TestValidateWaitWithoutReq(t *testing.T) {
	_, err := NewBuilder("noreq").
		Func("main", "m.c", 1, func(b *Body) {
			b.comm(CommWait, 2, Peer{}, Expr{}, 0, "")
		}).Build()
	if err == nil || !strings.Contains(err.Error(), "request") {
		t.Errorf("expected no-request error, got %v", err)
	}
}

func TestValidateRecursionRejected(t *testing.T) {
	_, err := NewBuilder("rec").
		Func("main", "m.c", 1, func(b *Body) { b.Call("main", 2) }).Build()
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected recursion error, got %v", err)
	}
	_, err = NewBuilder("mutual").
		Func("main", "m.c", 1, func(b *Body) { b.Call("a", 2) }).
		Func("a", "m.c", 5, func(b *Body) { b.Call("b", 6) }).
		Func("b", "m.c", 9, func(b *Body) { b.Call("a", 10) }).Build()
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected mutual recursion error, got %v", err)
	}
}

func TestValidateNestedParallelRejected(t *testing.T) {
	_, err := NewBuilder("nest").
		Func("main", "m.c", 1, func(b *Body) {
			b.Parallel("outer", 2, 4, true, ModelOpenMP, func(pb *Body) {
				pb.Parallel("inner", 3, 2, true, ModelOpenMP, nil)
			})
		}).Build()
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("expected nested-parallel error, got %v", err)
	}
}

func TestCommKindStrings(t *testing.T) {
	cases := map[CommKind]string{
		CommSend: "MPI_Send", CommIrecv: "MPI_Irecv", CommWaitall: "MPI_Waitall",
		CommAllreduce: "MPI_Allreduce", CommBarrier: "MPI_Barrier",
		CommAlltoall: "MPI_Alltoall",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !CommAllreduce.IsCollective() || CommSend.IsCollective() {
		t.Error("IsCollective wrong")
	}
	if CommKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestExprValue(t *testing.T) {
	cases := []struct {
		e          Expr
		rank, np   int
		want       float64
		wantApprox bool
	}{
		{Const(5), 0, 4, 5, false},
		{Expr{Base: 100, Scaling: ScaleInvP}, 0, 4, 25, false},
		{Expr{Base: 12, Slope: 2}, 3, 8, 18, false},
		{Expr{Base: 10, Factor: map[int]float64{1: 3}}, 1, 4, 30, false},
		{Expr{Base: 10, Factor: map[int]float64{1: 3}}, 2, 4, 10, false},
		{Expr{Base: 10, Add: map[int]float64{0: 5}}, 0, 4, 15, false},
		{Expr{Base: 8, FactorLowRanks: 2, FactorLowCount: 3}, 2, 16, 16, false},
		{Expr{Base: 8, FactorLowRanks: 2, FactorLowCount: 3}, 3, 16, 8, false},
		{Expr{Base: 100, Scaling: ScaleInvSqrt}, 0, 16, 25, false},
		{Expr{Base: 10, Scaling: ScaleLogP}, 0, 8, 30, false},
	}
	for i, c := range cases {
		got := c.e.Value(c.rank, c.np)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: Value = %v, want %v", i, got, c.want)
		}
	}
}

func TestExprZeroAndCopies(t *testing.T) {
	if !(Expr{}).IsZero() {
		t.Error("zero Expr should be zero")
	}
	e2 := Expr{Base: 4, Factor: map[int]float64{1: 2}, Add: map[int]float64{0: 3}}
	if e2.Value(1, 4) != 8 || e2.Value(0, 4) != 7 {
		t.Errorf("modified expr wrong: %v / %v", e2.Value(1, 4), e2.Value(0, 4))
	}
	if e2.IsZero() {
		t.Error("nonzero expr reported zero")
	}
}

// TestPeerSymmetric checks the Sendrecv partner rule: for every pattern
// that names a rank, the symmetric pattern applied at that rank leads back,
// at every size from 2 to 64, perfect squares or not. An out-of-range
// halo2d direction names no rank, forward or back.
func TestPeerSymmetric(t *testing.T) {
	var peers []Peer
	for arg := 0; arg <= 3; arg++ {
		peers = append(peers, Peer{Kind: PeerRight, Arg: arg}, Peer{Kind: PeerLeft, Arg: arg},
			Peer{Kind: PeerHalo2D, Arg: arg})
	}
	for mask := 1; mask <= 32; mask *= 2 {
		peers = append(peers, Peer{Kind: PeerXor, Arg: mask})
	}
	for n := 2; n <= 64; n++ {
		for _, p := range peers {
			for r := 0; r < n; r++ {
				q := p.Resolve(r, n)
				if q < 0 {
					if p.Kind != PeerXor {
						t.Fatalf("%v at rank %d of %d resolves to no peer", p, r, n)
					}
					continue // rank XOR mask beyond the communicator
				}
				if back := p.Symmetric().Resolve(q, n); back != r {
					t.Fatalf("%v at size %d: rank %d -> %d, symmetric %v -> %d", p, n, r, q, p.Symmetric(), back)
				}
			}
		}
		bad := Peer{Kind: PeerHalo2D, Arg: 7}
		if bad.Resolve(0, n) != -1 || bad.Symmetric().Resolve(0, n) != -1 {
			t.Fatalf("halo2d 7 at size %d should name no peer", n)
		}
	}
}

func TestPeerResolve(t *testing.T) {
	cases := []struct {
		p        Peer
		rank, np int
		want     int
	}{
		{Peer{Kind: PeerRight}, 3, 4, 0},
		{Peer{Kind: PeerRight, Arg: 2}, 3, 4, 1},
		{Peer{Kind: PeerLeft}, 0, 4, 3},
		{Peer{Kind: PeerConst, Arg: 2}, 0, 4, 2},
		{Peer{Kind: PeerConst, Arg: 9}, 0, 4, -1},
		{Peer{Kind: PeerXor, Arg: 1}, 2, 4, 3},
		{Peer{Kind: PeerXor, Arg: 4}, 1, 4, -1},
		{Peer{Kind: PeerNone}, 0, 4, -1},
		{Peer{Kind: PeerHalo2D, Arg: 0}, 0, 4, 1},
		{Peer{Kind: PeerHalo2D, Arg: 2}, 0, 4, 2},
	}
	for i, c := range cases {
		if got := c.p.Resolve(c.rank, c.np); got != c.want {
			t.Errorf("case %d (%v): Resolve = %d, want %d", i, c.p, got, c.want)
		}
	}
}

// Property: PeerRight and PeerLeft are inverse, and results are in range.
func TestPeerRightLeftInverseProperty(t *testing.T) {
	f := func(rankRaw, npRaw uint8, strideRaw uint8) bool {
		np := int(npRaw%63) + 2
		rank := int(rankRaw) % np
		stride := int(strideRaw%7) + 1
		r := Peer{Kind: PeerRight, Arg: stride}.Resolve(rank, np)
		if r < 0 || r >= np {
			return false
		}
		back := Peer{Kind: PeerLeft, Arg: stride}.Resolve(r, np)
		return back == rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: XOR peering is symmetric when in range.
func TestPeerXorSymmetricProperty(t *testing.T) {
	f := func(rankRaw, maskRaw uint8) bool {
		np := 64
		rank := int(rankRaw) % np
		mask := int(maskRaw) % np
		q := Peer{Kind: PeerXor, Arg: mask}.Resolve(rank, np)
		if q < 0 {
			return true
		}
		return Peer{Kind: PeerXor, Arg: mask}.Resolve(q, np) == rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Expr.Value is monotone in Base for fixed modifiers (sanity that
// scaling terms never flip sign).
func TestExprMonotoneBaseProperty(t *testing.T) {
	f := func(b1, b2 float64, rankRaw, npRaw uint8) bool {
		if math.IsNaN(b1) || math.IsNaN(b2) || math.IsInf(b1, 0) || math.IsInf(b2, 0) {
			return true
		}
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		np := int(npRaw%127) + 1
		rank := int(rankRaw) % np
		e1 := Expr{Base: b1, Scaling: ScaleInvP}
		e2 := Expr{Base: b2, Scaling: ScaleInvP}
		return e1.Value(rank, np) <= e2.Value(rank, np)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestThreadModelString(t *testing.T) {
	if ModelOpenMP.String() != "omp_parallel" || ModelPthreads.String() != "pthread_create" {
		t.Error("thread model names wrong")
	}
}

func TestAllocKindString(t *testing.T) {
	if AllocAlloc.String() != "allocate" || AllocRealloc.String() != "reallocate" || AllocDealloc.String() != "deallocate" {
		t.Error("alloc kind names wrong")
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	p := demoProgram(t)
	n := p.NumNodes()
	if err := p.Finalize(); err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
	if p.NumNodes() != n {
		t.Errorf("NumNodes changed on re-finalize: %d -> %d", n, p.NumNodes())
	}
}
