package sdf_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/sdf"
	"perflow/internal/workloads"
)

// matrixSizes are the communicator sizes of the static-vs-dynamic
// cross-check. 64 is deliberately beyond the lint engine's {4, 8, 16}
// enumeration: the symbolic matrix has never "seen" a 64-rank run, so
// agreement there demonstrates the closed forms generalize, not memorize.
var matrixSizes = []int{4, 8, 16, 64}

func allPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := map[string]*ir.Program{}
	for _, name := range workloads.Names() {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		if err := prog.Finalize(); err != nil {
			t.Fatalf("workload %s: finalize: %v", name, err)
		}
		out[name] = prog
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "dsl", "*.pfl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no DSL examples found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out["dsl/"+strings.TrimSuffix(filepath.Base(p), ".pfl")] = prog
	}
	return out
}

// TestStaticMatrixMatchesObserved is the engine's ground-truth anchor: on
// every fault-free workload and DSL example, at every probed size, the
// statically derived communication matrix must equal the matrix counted
// from a real simulated run — same rank pairs, same message counts, same
// bytes, same collective participations. Exactly, not approximately.
func TestStaticMatrixMatchesObserved(t *testing.T) {
	for name, prog := range allPrograms(t) {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			model, err := sdf.New(prog)
			if err != nil {
				t.Fatalf("sdf.New: %v", err)
			}
			matched := 0
			for _, n := range matrixSizes {
				run, err := mpisim.Run(prog, mpisim.Config{NRanks: n})
				if derr := (*mpisim.DeadlockError)(nil); errors.As(err, &derr) {
					// Not a fault-free configuration of this program (e.g.
					// pipeline.pfl is only correct at 8 ranks); the
					// cross-check only claims agreement on clean runs.
					t.Logf("skipping %d ranks: %v", n, err)
					continue
				}
				if err != nil {
					t.Fatalf("simulate at %d ranks: %v", n, err)
				}
				matched++
				static := model.Matrix(n)
				obs := sdf.Observed(run)
				if diff := static.Diff(obs); len(diff) != 0 {
					t.Errorf("at %d ranks: %d diverging slots; first: %+v",
						n, len(diff), diff[0])
				}
			}
			if matched == 0 {
				t.Error("no size ran cleanly; cross-check never exercised")
			}
		})
	}
}

// TestFaultedRunDiverges checks the other direction: when ranks crash
// mid-run, the observed matrix is missing traffic the model predicts, and
// Diff must say so — that asymmetry is the cross-check's diagnostic value.
func TestFaultedRunDiverges(t *testing.T) {
	prog, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Finalize(); err != nil {
		t.Fatal(err)
	}
	model, err := sdf.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	run, err := mpisim.Run(prog, mpisim.Config{
		NRanks: n,
		Faults: &mpisim.FaultPlan{Crashes: []mpisim.CrashFault{{Rank: 1, At: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := model.Matrix(n).Diff(sdf.Observed(run))
	if len(diff) == 0 {
		t.Fatal("crash-faulted run produced no matrix divergence")
	}
	for _, d := range diff {
		if d.ObsCount > d.PredCount {
			t.Errorf("crash increased traffic %+v", d)
		}
	}
}

// TestCostModelShape checks the static cost model against known workload
// structure: the LAMMPS case study's injected imbalance (ranks 0-2 are
// overloaded) must be visible statically, and its fixed variant must be
// measurably flatter.
func TestCostModelShape(t *testing.T) {
	p := sdf.DefaultCostParams()
	cost := func(name string, n int) sdf.CostSummary {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Finalize(); err != nil {
			t.Fatal(err)
		}
		model, err := sdf.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		return model.Cost(n, p)
	}
	bug := cost("lammps", 16)
	opt := cost("lammps-opt", 16)
	if bug.Imbalance <= 1.01 {
		t.Errorf("lammps imbalance = %.3f, want > 1.01", bug.Imbalance)
	}
	if opt.Imbalance >= bug.Imbalance {
		t.Errorf("lammps-opt imbalance %.3f not below lammps %.3f",
			opt.Imbalance, bug.Imbalance)
	}
	if bug.CriticalPath <= 0 || bug.CritRank > 2 {
		t.Errorf("lammps critical path %.1f on rank %d, want overloaded low rank",
			bug.CriticalPath, bug.CritRank)
	}
	if len(cost("cg", 8).PerRank) != 8 {
		t.Error("per-rank vector has wrong length")
	}
}

// TestFunctionCosts checks the static hotspot table is populated and
// sorted by descending compute.
func TestFunctionCosts(t *testing.T) {
	prog, err := workloads.Get("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Finalize(); err != nil {
		t.Fatal(err)
	}
	model, err := sdf.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	fns := model.FunctionCosts(8)
	if len(fns) == 0 {
		t.Fatal("no function costs")
	}
	for i := 1; i < len(fns); i++ {
		if fns[i].Compute > fns[i-1].Compute {
			t.Fatalf("function costs not sorted: %v", fns)
		}
	}
}

// TestWitnessSizes checks size derivation picks up per-rank special cases
// that the fixed {4, 8, 16} enumeration could never reach.
func TestWitnessSizes(t *testing.T) {
	prog, err := ir.ParseString(`
program witness
func main file w.c line 1
  branch straggler line 2 taken 0 add 20:1
    mpi send line 3 to rank0 bytes 64 tag 9
  end
  mpi barrier line 5
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sizes := sdf.WitnessSizes(prog)
	has := func(n int) bool {
		for _, s := range sizes {
			if s == n {
				return true
			}
		}
		return false
	}
	// rank 20's special case needs a communicator of at least 21 ranks.
	if !has(21) {
		t.Errorf("witness sizes %v missing 21 (rank-20 add key)", sizes)
	}
	if !has(64) {
		t.Errorf("witness sizes %v missing base size 64", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly sorted: %v", sizes)
		}
	}
}

// TestSymbolicRendering sanity-checks the closed-form report strings.
func TestSymbolicRendering(t *testing.T) {
	e := ir.Expr{Base: 100, Slope: 2, Scaling: ir.ScaleInvP}
	if got := sdf.ExprString(e); got != "(100+2*r)/P" {
		t.Errorf("ExprString = %q", got)
	}
	e2 := ir.Expr{Base: 8192, Factor: map[int]float64{0: 10}}
	if got := sdf.ExprString(e2); got != "8192 *{0:10}" {
		t.Errorf("ExprString = %q", got)
	}
	prog, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Finalize(); err != nil {
		t.Fatal(err)
	}
	model, err := sdf.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rows := model.SymbolicComms()
	if len(rows) == 0 {
		t.Fatal("no symbolic comm rows")
	}
	for _, r := range rows {
		if !strings.Contains(r, "count=") || !strings.Contains(r, "bytes=") {
			t.Errorf("malformed row %q", r)
		}
	}
}

// TestRecursiveModel checks that New summarizes a recursive call graph by
// cutting each back edge under the call stack it closes: a mutually
// recursive pair entered from both sides yields both functions' events
// under each entry, in call order. Its only error is a missing entry.
func TestRecursiveModel(t *testing.T) {
	prog, err := ir.ParseLenient(strings.NewReader(`
program mutual
func main file mr.c line 1
  call ping line 2
  call pong line 3
end
func ping file mr.c line 10
  mpi barrier line 11
  call pong line 12
end
func pong file mr.c line 20
  mpi bcast line 21 bytes 8
  call ping line 22
end
`))
	if err != nil {
		t.Fatal(err)
	}
	model, err := sdf.New(prog)
	if err != nil {
		t.Fatalf("sdf.New on a recursive program: %v", err)
	}
	var lines []int
	for _, ev := range model.Events {
		lines = append(lines, ir.InfoOf(ev.Node).Line)
	}
	if got, want := fmt.Sprint(lines), "[11 21 21 11]"; got != want {
		t.Errorf("event lines = %s, want %s", got, want)
	}
	if _, err := sdf.New(&ir.Program{Entry: "main"}); err == nil {
		t.Error("sdf.New without an entry function should fail")
	}
}
