package pag

import (
	"bytes"
	"testing"

	"perflow/internal/ir"
	"perflow/internal/mpisim"
	"perflow/internal/workloads"
)

func serializePAG(t *testing.T, p *PAG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.G.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestShardedBuildIdenticalAcrossParallelism is the byte-identity contract
// of the sharded builder: the parallel view serialized from a Parallelism=N
// build must equal the Parallelism=1 build bit for bit, for every workload.
// Run under -race this also exercises the worker pool for data races.
func TestShardedBuildIdenticalAcrossParallelism(t *testing.T) {
	for _, name := range []string{"cg", "ep", "lu", "zeusmp"} {
		prog, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := mpisim.Run(prog, mpisim.Config{NRanks: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: 1}))
		for _, par := range []int{2, 8} {
			got := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: par}))
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: Parallelism=%d build differs from sequential (%d vs %d bytes)",
					name, par, len(got), len(want))
			}
		}
		// The default entry point must be the same graph too.
		if got := serializePAG(t, BuildParallel(run)); !bytes.Equal(want, got) {
			t.Fatalf("%s: BuildParallel differs from Parallelism=1 build", name)
		}
	}
}

// TestShardedBuildIdenticalWithThreads covers the fork/join and resource-
// vertex phases: a threaded workload with lock contention must also build
// byte-identically at every parallelism level.
func TestShardedBuildIdenticalWithThreads(t *testing.T) {
	run, err := mpisim.Run(workloads.Vite(false), mpisim.Config{NRanks: 4, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: 1}))
	for _, par := range []int{3, 8} {
		got := serializePAG(t, BuildParallelOpts(run, BuildOptions{Parallelism: par}))
		if !bytes.Equal(want, got) {
			t.Fatalf("vite: Parallelism=%d build differs from sequential", par)
		}
	}
}

// TestEmbedRunParallelIdenticalAcrossParallelism checks that sharded data
// embedding produces the same top-down view at every worker count (the
// shard merge is rank-ordered, so float accumulation order is fixed),
// including a worker count that leaves a short last batch.
func TestEmbedRunParallelIdenticalAcrossParallelism(t *testing.T) {
	prog, err := workloads.Get("zeusmp")
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpisim.Run(prog, mpisim.Config{NRanks: 16})
	if err != nil {
		t.Fatal(err)
	}
	embed := func(par int) []byte {
		td := BuildTopDown(prog)
		td.EmbedRunParallel(run, PMUModel{}, BuildOptions{Parallelism: par})
		return serializePAG(t, td)
	}
	want := embed(1)
	for _, par := range []int{2, 3, 8} {
		if got := embed(par); !bytes.Equal(want, got) {
			t.Fatalf("EmbedRunParallel at Parallelism=%d differs from sequential", par)
		}
	}
}

// TestEmbedLeavesUntouchedMetricsAbsent: embedding creates a metric column
// only when some rank contributes to it, so a program without messages has
// no bytes column at all, not an all-absent one.
func TestEmbedLeavesUntouchedMetricsAbsent(t *testing.T) {
	prog, err := ir.NewBuilder("computeonly").
		Func("main", "m.c", 1, func(b *ir.Body) {
			b.Compute("work", 2, ir.Const(10))
		}).Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpisim.Run(prog, mpisim.Config{NRanks: 3})
	if err != nil {
		t.Fatal(err)
	}
	td := BuildTopDown(prog)
	td.EmbedRunParallel(run, PMUModel{}, BuildOptions{Parallelism: 2})
	if td.G.VertexMetricColumn(MetricBytes) != nil {
		t.Error("bytes column exists without any message")
	}
	if td.G.VertexMetricColumn(MetricExclTime) == nil {
		t.Error("no etime column after embedding compute events")
	}
}
