package mpisim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"perflow/internal/ir"
	"perflow/internal/trace"
)

func mustRun(t *testing.T, p *ir.Program, cfg Config) *trace.Run {
	t.Helper()
	run, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return run
}

func TestComputeOnly(t *testing.T) {
	p := ir.NewBuilder("c").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(100))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	for r, e := range run.Elapsed {
		if math.Abs(e-100) > 1e-9 {
			t.Errorf("rank %d elapsed = %v, want 100", r, e)
		}
	}
	if run.NumEvents() != 4 {
		t.Errorf("events = %d", run.NumEvents())
	}
}

func TestLoopClosedForm(t *testing.T) {
	p := ir.NewBuilder("l").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Loop("loop", 2, ir.Const(10), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(5))
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 1})
	if math.Abs(run.TotalTime()-50) > 1e-9 {
		t.Errorf("TotalTime = %v, want 50", run.TotalTime())
	}
	// Closed form: one event, not ten.
	if run.NumEvents() != 1 {
		t.Errorf("events = %d, want 1", run.NumEvents())
	}
}

func TestLoopCommPerIterReplays(t *testing.T) {
	p := ir.NewBuilder("l").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("loop", 2, ir.Const(3), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(5))
				lb.Barrier(4)
			})
			l.CommPerIter = true
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	// 3 iterations x (compute + barrier) per rank.
	if got := len(run.Events[0]); got != 6 {
		t.Errorf("rank 0 events = %d, want 6", got)
	}
}

func TestBlockingEagerSendRecv(t *testing.T) {
	// Rank 0 sends a small (eager) message to rank 1 after 10µs of work;
	// rank 1 receives after 2µs of work and must wait for the payload.
	p := ir.NewBuilder("sr").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Compute("work", 3, ir.Const(10))
				s.Send(4, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(100), 7)
			})
			b.Branch("receiver", 6, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("work", 7, ir.Const(2))
				r.Recv(8, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(100), 7)
			})
		}).MustBuild()
	cfg := Config{NRanks: 2, Latency: 2, Bandwidth: 100}
	run := mustRun(t, p, cfg)
	// Sender: 10 + injection (100/100=1) = 11. Not blocked by receiver.
	if math.Abs(run.Elapsed[0]-11) > 1e-9 {
		t.Errorf("sender elapsed = %v, want 11", run.Elapsed[0])
	}
	// Receiver: payload arrives at 10 + (2 + 100/100) = 13; recv posted at 2.
	if math.Abs(run.Elapsed[1]-13) > 1e-9 {
		t.Errorf("receiver elapsed = %v, want 13", run.Elapsed[1])
	}
	// The recv event should carry the waiting time (13 - 2 - 3 = 8).
	var recvEv *trace.Event
	for i := range run.Events[1] {
		if run.Events[1][i].Op == ir.CommRecv {
			recvEv = &run.Events[1][i]
		}
	}
	if recvEv == nil {
		t.Fatal("no recv event")
	}
	if math.Abs(recvEv.Wait-8) > 1e-9 {
		t.Errorf("recv wait = %v, want 8", recvEv.Wait)
	}
}

func TestRendezvousSendBlocksUntilRecv(t *testing.T) {
	// Large message: sender ready at 1µs, receiver posts at 50µs. The
	// blocking send cannot finish before the receiver shows up.
	p := ir.NewBuilder("rdv").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Compute("work", 3, ir.Const(1))
				s.Send(4, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(1_000_000), 0)
			})
			b.Branch("receiver", 6, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("work", 7, ir.Const(50))
				r.Recv(8, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(1_000_000), 0)
			})
		}).MustBuild()
	cfg := Config{NRanks: 2, Latency: 2, Bandwidth: 10000, EagerThreshold: 4096}
	run := mustRun(t, p, cfg)
	transfer := 2 + 1_000_000.0/10000
	want := 50 + transfer
	if math.Abs(run.Elapsed[0]-want) > 1e-9 {
		t.Errorf("sender elapsed = %v, want %v (blocked on rendezvous)", run.Elapsed[0], want)
	}
	if math.Abs(run.Elapsed[1]-want) > 1e-9 {
		t.Errorf("receiver elapsed = %v, want %v", run.Elapsed[1], want)
	}
}

func TestNonblockingOverlap(t *testing.T) {
	// Halo exchange with isend/irecv + waitall: communication overlaps the
	// following compute, so elapsed is close to compute + one transfer.
	p := ir.NewBuilder("nb").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Isend(2, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(3, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Compute("overlap", 4, ir.Const(100))
			b.Waitall(5)
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 1000}
	run := mustRun(t, p, cfg)
	// Transfer = 2 + 1 = 3µs, fully hidden behind 100µs compute.
	for r, e := range run.Elapsed {
		if math.Abs(e-100) > 1.0 {
			t.Errorf("rank %d elapsed = %v, want ~100 (overlapped)", r, e)
		}
	}
}

func TestWaitallWaitsForLateSender(t *testing.T) {
	// Rank 0 computes 200µs before its isend; others must wait in Waitall
	// for the late payload: the paper's imbalance-propagation mechanism.
	p := ir.NewBuilder("late").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("imbalanced", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 20}})
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Waitall(5)
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 1000}
	run := mustRun(t, p, cfg)
	// Rank 1 receives from rank 0 (left), so its waitall ends after 200+3.
	if run.Elapsed[1] < 200 {
		t.Errorf("rank 1 elapsed = %v, should be delayed past 200 by rank 0", run.Elapsed[1])
	}
	// Rank 3's left neighbor is rank 2 (fast), so it finishes much earlier.
	if run.Elapsed[3] > 100 {
		t.Errorf("rank 3 elapsed = %v, should not be delayed", run.Elapsed[3])
	}
	// Waitall wait time on rank 1 should be large.
	var wa *trace.Event
	for i := range run.Events[1] {
		if run.Events[1][i].Op == ir.CommWaitall {
			wa = &run.Events[1][i]
		}
	}
	if wa == nil || wa.Wait < 150 {
		t.Errorf("rank 1 waitall wait = %+v, want substantial", wa)
	}
}

func TestCollectiveSynchronizes(t *testing.T) {
	p := ir.NewBuilder("coll").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("imbalanced", 2, ir.Expr{Base: 10, Factor: map[int]float64{2: 10}})
			b.Allreduce(3, ir.Const(8))
		}).MustBuild()
	cfg := Config{NRanks: 4, Latency: 2, Bandwidth: 10000}
	run := mustRun(t, p, cfg)
	// Everyone finishes together, after the slowest rank (100µs) plus cost.
	for r := 1; r < 4; r++ {
		if math.Abs(run.Elapsed[r]-run.Elapsed[0]) > 1e-9 {
			t.Errorf("ranks finish apart: %v vs %v", run.Elapsed[r], run.Elapsed[0])
		}
	}
	if run.Elapsed[0] < 100 {
		t.Errorf("collective finished before slowest arrival: %v", run.Elapsed[0])
	}
	// Fast ranks carry wait time on the allreduce event.
	var ar *trace.Event
	for i := range run.Events[0] {
		if run.Events[0][i].Op == ir.CommAllreduce {
			ar = &run.Events[0][i]
		}
	}
	if ar == nil || ar.Wait < 80 {
		t.Errorf("allreduce wait on fast rank = %+v, want ~90", ar)
	}
}

func TestBarrierAndMultipleCollectives(t *testing.T) {
	p := ir.NewBuilder("two").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Barrier(2)
			b.Compute("w", 3, ir.Const(5))
			b.Allreduce(4, ir.Const(64))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 8})
	if run.TotalTime() <= 5 {
		t.Errorf("total = %v, want > 5", run.TotalTime())
	}
	for r := range run.Events {
		colls := 0
		for _, e := range run.Events[r] {
			if e.Op.IsCollective() && e.Kind == trace.KindComm {
				colls++
			}
		}
		if colls != 2 {
			t.Errorf("rank %d collective events = %d, want 2", r, colls)
		}
	}
}

func TestDeadlockDetectedUnmatchedRecv(t *testing.T) {
	p := ir.NewBuilder("dead").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("r0", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Recv(3, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(10), 5)
			})
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 2})
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0].Rank != 0 {
		t.Errorf("blocked = %+v", de.Blocked)
	}
	if !strings.Contains(de.Error(), "MPI_Recv") || !strings.Contains(de.Error(), "m.c:3") {
		t.Errorf("error lacks context: %v", de.Error())
	}
}

func TestDeadlockMismatchedCollectives(t *testing.T) {
	p := ir.NewBuilder("mismatch").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("even", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Barrier(3)
			})
			b.Branch("odd", 4, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(s *ir.Body) {
				s.Allreduce(5, ir.Const(8))
			})
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 2})
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("expected DeadlockError for mismatched collectives, got %v", err)
	}
}

func TestSendRecvChainPropagation(t *testing.T) {
	// A pipeline: each rank receives from the left, computes, sends right.
	// Rank 0's slowness propagates down the whole chain.
	p := ir.NewBuilder("chain").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 1, Add: map[int]float64{0: 100}})
			b.Branch("notfirst", 3, ir.Expr{Base: 1, Factor: map[int]float64{0: 0}}, func(s *ir.Body) {
				s.Recv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(100000), 1)
			})
			b.Branch("notlast", 5, ir.Expr{Base: 1, Factor: map[int]float64{3: 0}}, func(s *ir.Body) {
				s.Send(6, ir.Peer{Kind: ir.PeerRight}, ir.Const(100000), 1)
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4, EagerThreshold: 100})
	if run.Elapsed[3] < 100 {
		t.Errorf("pipeline end elapsed = %v, should inherit rank 0 delay", run.Elapsed[3])
	}
	if run.Elapsed[0] > run.Elapsed[3] {
		t.Errorf("elapsed should grow down the pipeline: %v", run.Elapsed)
	}
}

func TestPerEventOverheadSlowsRun(t *testing.T) {
	p := ir.NewBuilder("oh").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("l", 2, ir.Const(20), func(lb *ir.Body) {
				lb.Compute("w", 3, ir.Const(1))
				lb.Barrier(4)
			})
			l.CommPerIter = true
		}).MustBuild()
	clean := mustRun(t, p, Config{NRanks: 2})
	dirty := mustRun(t, p, Config{NRanks: 2, PerEventOverhead: 0.5})
	if dirty.TotalTime() <= clean.TotalTime() {
		t.Errorf("instrumented run (%v) should be slower than clean (%v)", dirty.TotalTime(), clean.TotalTime())
	}
}

func TestSamplingSlowdown(t *testing.T) {
	p := ir.NewBuilder("s").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(1000))
		}).MustBuild()
	clean := mustRun(t, p, Config{NRanks: 1})
	sampled := mustRun(t, p, Config{NRanks: 1, SamplingPeriod: 100, SampleCost: 1})
	want := 1000 * 1.01
	if math.Abs(sampled.TotalTime()-want) > 1e-6 {
		t.Errorf("sampled total = %v, want %v", sampled.TotalTime(), want)
	}
	if clean.TotalTime() != 1000 {
		t.Errorf("clean total = %v", clean.TotalTime())
	}
}

func TestParallelRegionOnRank(t *testing.T) {
	p := ir.NewBuilder("pr").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Parallel("omp", 2, 0, true, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Compute("w", 3, ir.Const(80))
			})
			b.Barrier(5)
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2, Threads: 4})
	// Workshared 80µs over 4 threads = 20µs + barrier cost.
	if run.TotalTime() < 20 || run.TotalTime() > 30 {
		t.Errorf("total = %v, want ~20-25", run.TotalTime())
	}
	// Region + per-thread events present.
	var regions, computes int
	run.ForEach(func(e *trace.Event) {
		switch e.Kind {
		case trace.KindRegion:
			regions++
		case trace.KindCompute:
			computes++
		}
	})
	if regions != 2 {
		t.Errorf("region events = %d, want 2", regions)
	}
	if computes != 8 {
		t.Errorf("thread compute events = %d, want 8", computes)
	}
}

func TestEventsOrderedAndCausal(t *testing.T) {
	p := ir.NewBuilder("ord").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("a", 2, ir.Const(3))
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(10), 0, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(10), 0, "r")
			b.Compute("b", 5, ir.Const(3))
			b.Waitall(6)
			b.Allreduce(7, ir.Const(8))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 3})
	run.ForEach(func(e *trace.Event) {
		if e.End < e.Start {
			t.Errorf("event ends before start: %+v", e)
		}
		if e.Wait < 0 {
			t.Errorf("negative wait: %+v", e)
		}
	})
	// Per-rank event start times must be non-decreasing.
	for r := range run.Events {
		for i := 1; i < len(run.Events[r]); i++ {
			if run.Events[r][i].Start+1e-9 < run.Events[r][i-1].Start {
				t.Errorf("rank %d events out of order at %d", r, i)
			}
		}
	}
}

func TestWaitForNamedRequest(t *testing.T) {
	p := ir.NewBuilder("wait").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Isend(2, ir.Peer{Kind: ir.PeerRight}, ir.Const(64), 0, "a")
			b.Irecv(3, ir.Peer{Kind: ir.PeerLeft}, ir.Const(64), 0, "b")
			b.Wait(4, "b")
			b.Wait(5, "a")
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	for r := range run.Events {
		waits := 0
		for _, e := range run.Events[r] {
			if e.Op == ir.CommWait && e.Kind == trace.KindComm {
				waits++
			}
		}
		if waits != 2 {
			t.Errorf("rank %d wait events = %d, want 2", r, waits)
		}
	}
}

func TestRunStatsCommFraction(t *testing.T) {
	p := ir.NewBuilder("frac").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Const(50))
			b.Allreduce(3, ir.Const(1_000_000))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	s := run.ComputeStats()
	if s.CommFraction <= 0 {
		t.Errorf("comm fraction = %v", s.CommFraction)
	}
}

// Property: per-rank clocks never decrease and total time is at least the
// max pure-compute time of any rank.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		imb := float64(seedRaw%5) + 1
		p := ir.NewBuilder("prop").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: imb}})
				b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(500), 0, "s")
				b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(500), 0, "r")
				b.Waitall(5)
				b.Allreduce(6, ir.Const(8))
			}).MustBuild()
		run, err := Run(p, Config{NRanks: 4})
		if err != nil {
			return false
		}
		for r := range run.Events {
			prev := 0.0
			for _, e := range run.Events[r] {
				if e.Start+1e-9 < prev {
					return false
				}
				if e.End > prev {
					prev = e.End
				}
			}
		}
		return run.TotalTime() >= 10*imb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: making one rank slower never makes the collective-synchronized
// makespan shorter (monotonicity of the simulator).
func TestMakespanMonotoneProperty(t *testing.T) {
	build := func(extra float64) *ir.Program {
		return ir.NewBuilder("mono").
			Func("main", "m.c", 1, func(b *ir.Body) {
				b.Compute("w", 2, ir.Expr{Base: 10, Add: map[int]float64{1: extra}})
				b.Barrier(3)
			}).MustBuild()
	}
	f := func(e1Raw, e2Raw uint8) bool {
		e1, e2 := float64(e1Raw), float64(e2Raw)
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		r1, err1 := Run(build(e1), Config{NRanks: 4})
		r2, err2 := Run(build(e2), Config{NRanks: 4})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.TotalTime() <= r2.TotalTime()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupHelper(t *testing.T) {
	p := ir.NewBuilder("sp").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 1000, Scaling: ir.ScaleInvP})
		}).MustBuild()
	small := mustRun(t, p, Config{NRanks: 2})
	large := mustRun(t, p, Config{NRanks: 8})
	sp := Speedup(small, large)
	if math.Abs(sp-4) > 1e-9 {
		t.Errorf("speedup = %v, want 4 (perfect strong scaling)", sp)
	}
}

func TestMaxOpsGuard(t *testing.T) {
	p := ir.NewBuilder("huge").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("l", 2, ir.Const(1000), func(lb *ir.Body) {
				lb.Barrier(3)
			})
			l.CommPerIter = true
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 1, MaxOpsPerRank: 100})
	if err == nil || !strings.Contains(err.Error(), "flattened operations") {
		t.Errorf("expected op-cap error, got %v", err)
	}
}

func TestSyncEdgesRecorded(t *testing.T) {
	// Imbalanced compute followed by halo exchange + waitall + allreduce:
	// expect message syncs into waitall and collective syncs into allreduce.
	p := ir.NewBuilder("sync").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 30}})
			b.Isend(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1000), 1, "s")
			b.Irecv(4, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1000), 1, "r")
			b.Waitall(5)
			b.Allreduce(6, ir.Const(8))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	var msg, coll int
	for _, se := range run.Syncs {
		switch se.Kind {
		case trace.SyncMessage:
			msg++
			if se.SrcRank == se.DstRank {
				t.Errorf("message sync within one rank: %+v", se)
			}
		case trace.SyncCollective:
			coll++
			// The last arrival is rank 1: rank 0 is slow to compute, and its
			// late isend payload further delays rank 1's waitall — the
			// propagation chain of the paper's case study A.
			if se.SrcRank != 1 {
				t.Errorf("collective sync source = %d, want 1 (delay propagated via waitall)", se.SrcRank)
			}
		}
		if se.Wait < 0 {
			t.Errorf("negative sync wait: %+v", se)
		}
	}
	if msg != 4 {
		t.Errorf("message syncs = %d, want 4 (one per waitall-retired recv)", msg)
	}
	if coll != 3 {
		t.Errorf("collective syncs = %d, want 3 (all but the slowest)", coll)
	}
}

func TestRendezvousSyncEdge(t *testing.T) {
	p := ir.NewBuilder("rs").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Branch("sender", 2, ir.Expr{Base: 1, Factor: map[int]float64{1: 0}}, func(s *ir.Body) {
				s.Send(3, ir.Peer{Kind: ir.PeerConst, Arg: 1}, ir.Const(1_000_000), 0)
			})
			b.Branch("receiver", 5, ir.Expr{Base: 0, Add: map[int]float64{1: 1}}, func(r *ir.Body) {
				r.Compute("late", 6, ir.Const(500))
				r.Recv(7, ir.Peer{Kind: ir.PeerConst, Arg: 0}, ir.Const(1_000_000), 0)
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2})
	found := false
	for _, se := range run.Syncs {
		if se.Kind == trace.SyncRendezvous && se.SrcRank == 1 && se.DstRank == 0 && se.Wait > 400 {
			found = true
		}
	}
	if !found {
		t.Errorf("no rendezvous sync from late receiver; syncs = %+v", run.Syncs)
	}
}

func TestThreadSyncEdgesMerged(t *testing.T) {
	p := ir.NewBuilder("ts").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Parallel("omp", 2, 4, false, ir.ModelOpenMP, func(pb *ir.Body) {
				pb.Alloc(ir.AllocAlloc, 3, ir.Const(20), ir.Const(1))
			})
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 2, Threads: 4})
	locks := 0
	for _, se := range run.Syncs {
		if se.Kind == trace.SyncLock {
			locks++
			if se.Lock == "" || se.SrcThread < 0 || se.DstThread < 0 {
				t.Errorf("malformed lock sync: %+v", se)
			}
		}
	}
	if locks == 0 {
		t.Error("no lock contention syncs recorded")
	}
}

func TestSendrecvRingDeadlockFree(t *testing.T) {
	// MPI_Sendrecv around a ring with large (rendezvous) payloads — the
	// exact pattern that deadlocks with plain blocking sends (see
	// TestDeadlockCyclicRendezvousSends) — completes when fused.
	p := ir.NewBuilder("ring").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{0: 5}})
			b.Sendrecv(3, ir.Peer{Kind: ir.PeerRight}, ir.Const(1_000_000), 0)
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	// Every rank completes, and ranks adjacent to the slow rank are held
	// back by the rendezvous with it.
	if run.Elapsed[1] < 50 {
		t.Errorf("rank 1 should wait for rank 0's payload: %v", run.Elapsed)
	}
	// All four sub-events carry the Sendrecv node identity.
	names := map[string]bool{}
	for _, e := range run.Events[0] {
		if e.Kind == trace.KindComm {
			n := run.Program.Node(e.Node)
			names[ir.InfoOf(n).Name] = true
		}
	}
	if !names["MPI_Sendrecv"] {
		t.Errorf("events not attributed to the Sendrecv node: %v", names)
	}
}

// TestSendrecvUnresolvablePeer pins the failure of a Sendrecv whose peer
// pattern names no rank: an out-of-range halo2d direction resolves to no
// peer for the send half and its symmetric receive half alike.
func TestSendrecvUnresolvablePeer(t *testing.T) {
	p := ir.NewBuilder("badhalo").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Sendrecv(3, ir.Peer{Kind: ir.PeerHalo2D, Arg: 7}, ir.Const(64), 0)
		}).MustBuild()
	_, err := Run(p, Config{NRanks: 4})
	if err == nil || !strings.Contains(err.Error(), "MPI_Sendrecv at m.c:3 has no resolvable peer") {
		t.Fatalf("want an unresolvable-peer error, got %v", err)
	}
}

func TestGatherScatterCollectives(t *testing.T) {
	p := ir.NewBuilder("gs").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("w", 2, ir.Expr{Base: 10, Factor: map[int]float64{2: 8}})
			b.Gather(3, ir.Const(4096))
			b.Scatter(4, ir.Const(4096))
		}).MustBuild()
	run := mustRun(t, p, Config{NRanks: 4})
	// Both collectives synchronize: all ranks end together.
	for r := 1; r < 4; r++ {
		if math.Abs(run.Elapsed[r]-run.Elapsed[0]) > 1e-9 {
			t.Errorf("ranks diverge after gather/scatter: %v", run.Elapsed)
		}
	}
	var gathers, scatters int
	run.ForEach(func(e *trace.Event) {
		switch e.Op {
		case ir.CommGather:
			gathers++
		case ir.CommScatter:
			scatters++
		}
	})
	if gathers != 4 || scatters != 4 {
		t.Errorf("collective events: gather=%d scatter=%d", gathers, scatters)
	}
}

// TestOpIsCompact: a flattened op holds no pointer or string, so op lists
// are never scanned by the garbage collector, and it stays within 40 bytes.
func TestOpIsCompact(t *testing.T) {
	typ := reflect.TypeOf(op{})
	if typ.Size() > 40 {
		t.Errorf("op is %d bytes, want at most 40", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float64:
		default:
			t.Errorf("op field %s has kind %s", f.Name, f.Type.Kind())
		}
	}
}

// TestEventsPresized: without parallel regions every flattened op emits
// exactly one event, so each rank's event list is allocated at its final
// length.
func TestEventsPresized(t *testing.T) {
	p, err := ir.NewBuilder("presize").
		Func("main", "m.c", 1, func(b *ir.Body) {
			l := b.Loop("steps", 2, ir.Const(5), func(lb *ir.Body) {
				lb.Compute("work", 3, ir.Expr{Base: 100, Factor: map[int]float64{1: 2}})
				lb.Isend(4, ir.Peer{Kind: ir.PeerRight}, ir.Const(1024), 1, "s")
				lb.Irecv(5, ir.Peer{Kind: ir.PeerLeft}, ir.Const(1024), 1, "r")
				lb.Waitall(6)
				lb.Allreduce(7, ir.Const(8))
			})
			l.CommPerIter = true
		}).Build()
	if err != nil {
		t.Fatal(err)
	}
	run := mustRun(t, p, Config{NRanks: 4})
	for r, evs := range run.Events {
		if len(evs) != 25 || cap(evs) != len(evs) {
			t.Errorf("rank %d: %d events in capacity %d, want 25 in 25", r, len(evs), cap(evs))
		}
	}
}
