package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/sdf"
	"perflow/internal/workloads"
)

// cleanPrograms returns every built-in workload plus every non-defect DSL
// example, keyed by a display name.
func cleanPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := map[string]*ir.Program{}
	for _, name := range workloads.Names() {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		out[name] = prog
	}
	paths, err := filepath.Glob("../../examples/dsl/*.pfl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
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
		out["dsl/"+filepath.Base(p)] = prog
	}
	return out
}

// badPrograms returns every planted-defect DSL fixture under
// examples/dsl/bad, parsed leniently, keyed by a display name.
func badPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	paths, err := filepath.Glob("../../examples/dsl/bad/*.pfl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bad fixtures found: %v", err)
	}
	out := map[string]*ir.Program{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.ParseLenient(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out["bad/"+filepath.Base(p)] = prog
	}
	return out
}

// recursiveSources are programs with cyclic static call graphs that carry
// stream-visible defects: a mutually recursive pair entered from both
// sides (a tag mismatch and request reuse inside the cycle), and a
// self-recursion under a rank guard (a blocking send ring and a collective
// only rank 0 reaches).
var recursiveSources = map[string]string{
	"mutual": `
program mutual
func main file mr.c line 1
  call ping line 2
  call pong line 3
  mpi waitall line 4
end
func ping file mr.c line 10
  mpi isend line 11 to right bytes 64 tag 1 req a
  mpi irecv line 12 to left bytes 64 tag 2 req a
  call pong line 13
end
func pong file mr.c line 20
  mpi isend line 21 to left bytes 32 tag 3 req b
  mpi irecv line 22 to right bytes 32 tag 3 req c
  call ping line 23
  mpi wait line 24 req c
end
`,
	"selfguard": `
program selfguard
func main file sg.c line 1
  call descend line 2
end
func descend file sg.c line 10
  mpi send line 11 to right bytes 8192 tag 5
  mpi recv line 12 to left bytes 8192 tag 5
  branch root line 13 taken 0 add 0:1
    mpi bcast line 14 bytes 8
    call descend line 15
  end
end
`,
}

func parseRecursive(t *testing.T, name string) *ir.Program {
	t.Helper()
	prog, err := ir.ParseLenient(strings.NewReader(recursiveSources[name]))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog
}

// TestSymbolicRecursivePrograms pins the full lint output on recursive
// programs: recursion is cut at the back edge, the stream-visible defects
// inside the cycle are still found, and the symbolic analyzers (PF030+)
// stay silent.
func TestSymbolicRecursivePrograms(t *testing.T) {
	want := map[string]string{
		"mutual": `mr.c:11: warning: request "a" reissued by MPI_Isend before the pending MPI_Irecv completed [PF011]
	mr.c:12: request "a" previously issued here
mr.c:11: error: MPI_Isend rank 0 -> rank 1 (tag 1) has no matching receive (4 rank pairs affected) [PF012]
	mr.c:12: rank 1 receives from rank 0 with tag 2 here
mr.c:12: warning: request "a" reissued by MPI_Irecv before the pending MPI_Isend completed [PF011]
	mr.c:11: request "a" previously issued here
mr.c:12: error: MPI_Irecv at rank 1 from rank 0 (tag 2) has no matching send (4 rank pairs affected) [PF012]
	mr.c:11: rank 0 sends to rank 1 with tag 1 here
mr.c:21: warning: request "b" reissued by MPI_Isend before the pending MPI_Isend completed [PF011]
	mr.c:21: request "b" previously issued here
mr.c:23: error: recursive call cycle through "ping" [PF004]
`,
		"selfguard": `sg.c:11: error: potential deadlock at communicator size 4: ranks wait in a cycle 0 -> 1 -> 2 -> 3 -> 0, each blocked in MPI_Send [PF013]
sg.c:14: warning: collective MPI_Bcast is reached by 1 of 4 ranks (divergent control flow would hang the others) [PF020]
sg.c:15: error: recursive call cycle through "descend" [PF004]
`,
	}
	for name := range recursiveSources {
		t.Run(name, func(t *testing.T) {
			diags, err := Run(parseRecursive(t, name), Options{})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := Write(&b, diags); err != nil {
				t.Fatal(err)
			}
			if b.String() != want[name] {
				t.Errorf("lint output mismatch\n--- got ---\n%s--- want ---\n%s", b.String(), want[name])
			}
		})
	}
}

// rankComms is the test oracle for the symbolic streams: it resolves one
// rank's communication sequence by walking the IR directly. It is a DFS
// from the entry function in execution order, taking branches whose
// condition is nonzero for the rank, entering loops once with multiplicity
// scaled by the trip count, and following direct calls (external,
// indirect, and undefined callees are skipped; recursion is cut at the
// cycle). Sendrecv is expanded to an Isend toward the peer plus an Irecv
// from the symmetric partner, exactly as mpisim executes it.
func rankComms(prog *ir.Program, rank, nranks int) []commOp {
	entry := prog.Function(prog.Entry)
	if entry == nil {
		return nil
	}
	var out []commOp
	onStack := map[string]bool{entry.Name: true}
	var walk func(ns []ir.Node, fn string, mult float64)
	walk = func(ns []ir.Node, fn string, mult float64) {
		for _, n := range ns {
			switch x := n.(type) {
			case *ir.Comm:
				emit := func(op ir.CommKind, peer ir.Peer) {
					o := commOp{node: x, op: op, fn: fn, peer: -1, mult: mult,
						bytes: x.Bytes.Value(rank, nranks)}
					switch op {
					case ir.CommSend, ir.CommRecv, ir.CommIsend, ir.CommIrecv:
						if peer.Kind == ir.PeerAny {
							o.peer = wildAny
						} else {
							o.peer = peer.Resolve(rank, nranks)
						}
					}
					out = append(out, o)
				}
				if x.Op == ir.CommSendrecv {
					emit(ir.CommIsend, x.Peer)
					emit(ir.CommIrecv, x.Peer.Symmetric())
				} else {
					emit(x.Op, x.Peer)
				}
			case *ir.Branch:
				if x.Taken.Value(rank, nranks) != 0 {
					walk(x.Body, fn, mult)
				}
			case *ir.Loop:
				if trips := x.Trips.Value(rank, nranks); trips > 0 {
					walk(x.Body, fn, mult*trips)
				}
			case *ir.Call:
				if x.External || x.Indirect || onStack[x.Callee] {
					continue
				}
				callee := prog.Function(x.Callee)
				if callee == nil {
					continue
				}
				onStack[x.Callee] = true
				walk(callee.Body, x.Callee, mult)
				onStack[x.Callee] = false
			default:
				walk(n.Children(), fn, mult)
			}
		}
	}
	walk(entry.Body, entry.Name, 1)
	return out
}

// checkStreams asserts that the symbolic model's stream of every rank at
// every given size equals the oracle walk's.
func checkStreams(t *testing.T, prog *ir.Program, sizes []int) {
	t.Helper()
	if !prog.Finalized() {
		if err := prog.FinalizeStructure(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sdf.New(prog)
	if err != nil {
		t.Fatalf("sdf.New: %v", err)
	}
	for _, size := range sizes {
		for r := 0; r < size; r++ {
			sym := modelComms(m, r, size)
			enum := rankComms(prog, r, size)
			if !reflect.DeepEqual(sym, enum) {
				t.Fatalf("rank %d size %d: symbolic stream (%d ops) != enumerated stream (%d ops)",
					r, size, len(sym), len(enum))
			}
		}
	}
}

// TestSymbolicEnumerationAgree is the differential test of the lint
// streams: the symbolic dataflow model's per-rank communication stream
// must be identical — op for op, peer for peer, multiplicity for
// multiplicity — to the oracle walk, on every built-in workload, example,
// planted-defect fixture and recursive program at the enumerated sizes, at
// 3 and at 64 (sizes the enumerated checks never model).
func TestSymbolicEnumerationAgree(t *testing.T) {
	progs := cleanPrograms(t)
	for name, prog := range badPrograms(t) {
		progs[name] = prog
	}
	for name := range recursiveSources {
		progs["recursive/"+name] = parseRecursive(t, name)
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) { checkStreams(t, prog, []int{3, 4, 8, 16, 64}) })
	}
}

// preSymbolic names the analyzers that predate the symbolic layer: every
// code below PF030.
func preSymbolic() []string {
	var names []string
	for _, an := range Analyzers() {
		if an.Code < "PF030" {
			names = append(names, an.Name)
		}
	}
	return names
}

// TestSymbolicFindingsMatchEnumeration asserts that on every clean program
// the witness-size and whole-program analyzers (PF030+) add nothing — the
// full lint run equals the run of the pre-symbolic analyzers alone — and
// that the streams those analyzers read equal the oracle walk at the
// enumerated sizes.
func TestSymbolicFindingsMatchEnumeration(t *testing.T) {
	for name, prog := range cleanPrograms(t) {
		t.Run(name, func(t *testing.T) {
			all, err := Run(prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pre, err := Run(prog, Options{Analyzers: preSymbolic()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all, pre) {
				t.Fatalf("the symbolic analyzers reported on a clean program:\nall: %v\npre-symbolic: %v", all, pre)
			}
			checkStreams(t, prog, (&Pass{}).Sizes())
		})
	}
}

// TestSymbolicPlantedDefects pins, for each PF030–PF036 fixture, that the
// symbolic analyzers report the planted code at the planted position — and
// that the pre-symbolic analyzers find NOTHING in the same file. That is
// the regression guarantee of the symbolic layer: every one of these
// defects is provably invisible to the enumerated checks.
func TestSymbolicPlantedDefects(t *testing.T) {
	cases := []struct {
		fixture string
		code    string
		pos     string
	}{
		{"pf030.pfl", "PF030", "wild.c:6"},
		{"pf031.pfl", "PF031", "reuse.c:4"},
		{"pf032.pfl", "PF032", "diverge.c:3"},
		{"pf033.pfl", "PF033", "imbalance.c:4"},
		{"pf034.pfl", "PF034", "barrier.c:4"},
		{"pf035.pfl", "PF035", "vol.c:3"},
		{"pf036.pfl", "PF036", "sizedep.c:3"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "dsl", "bad", tc.fixture)
			parse := func() *ir.Program {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				prog, err := ir.ParseLenient(f)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}

			diags, err := Run(parse(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range diags {
				if d.Code == tc.code && d.Position.String() == tc.pos {
					found = true
				}
				if d.Code < "PF030" {
					t.Errorf("unexpected pre-symbolic finding %s at %s: %s", d.Code, d.Position, d.Message)
				}
			}
			if !found {
				t.Errorf("want %s at %s; got %v", tc.code, tc.pos, diags)
			}

			old, err := Run(parse(), Options{Analyzers: preSymbolic()})
			if err != nil {
				t.Fatal(err)
			}
			if len(old) != 0 {
				t.Errorf("the pre-symbolic analyzers should find nothing in %s; got %v", tc.fixture, old)
			}
		})
	}
}

// TestWildcardPoolMatching covers the matcher's MPI_ANY_SOURCE semantics
// directly: a send absorbed by a wildcard pool is not an unmatched channel,
// a wildcard receive with no candidate sender anywhere is, and a payload
// disagreement between a send and the absorbing pool is a PF014.
func TestWildcardPoolMatching(t *testing.T) {
	lintSrc := func(t *testing.T, src string) []Diagnostic {
		t.Helper()
		prog, err := ir.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	header := "program wildpool\nfunc main file wp.c line 1\n"

	// Absorbed: rank 1 sends to rank 0, rank 0 receives from any source.
	clean := lintSrc(t, header+`
  branch sender line 2 taken 0 add 1:1
    mpi send line 3 to rank0 bytes 64 tag 1
  end
  branch root line 5 taken 0 add 0:1
    mpi recv line 6 to any bytes 64 tag 1
  end
end`)
	for _, d := range clean {
		if d.Code == "PF012" {
			t.Errorf("absorbed send reported as unmatched: %s", d.Message)
		}
	}

	// Orphan wildcard: nobody sends under tag 9 at all.
	orphan := lintSrc(t, header+`
  branch root line 2 taken 0 add 0:1
    mpi recv line 3 to any bytes 64 tag 9
  end
end`)
	if !hasCode(orphan, "PF012") {
		t.Errorf("wildcard receive with no candidate send must be PF012; got %v", orphan)
	}

	// Size skew: the pool posts 32 bytes for a 64-byte send.
	skew := lintSrc(t, header+`
  branch sender line 2 taken 0 add 1:1
    mpi send line 3 to rank0 bytes 64 tag 1
  end
  branch root line 5 taken 0 add 0:1
    mpi recv line 6 to any bytes 32 tag 1
  end
end`)
	if !hasCode(skew, "PF014") {
		t.Errorf("payload skew against the wildcard pool must be PF014; got %v", skew)
	}
}

func hasCode(diags []Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}
