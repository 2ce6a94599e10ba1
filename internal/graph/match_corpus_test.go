package graph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/graph"
	"perflow/internal/ir"
	"perflow/internal/pag"
	"perflow/internal/workloads"
)

// TestMatchLabelIndexEquivalenceCorpus is the workload half of
// TestMatchLabelIndexEquivalence: the contention pattern (paper Listing 6)
// on real parallel views, default matcher against the naive full scan,
// unanchored and anchored on every vertex, under every cap. Embedding
// order must agree too, since it decides which embeddings a cap keeps.
func TestMatchLabelIndexEquivalenceCorpus(t *testing.T) {
	dsl := func(name string) *ir.Program {
		f, err := os.Open(filepath.Join("..", "..", "examples", "dsl", name+".pfl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		p, err := ir.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name           string
		prog           *ir.Program
		ranks, threads int
	}{
		{"vite", workloads.Vite(false), 8, 4},
		{"threads_contention", dsl("threads_contention"), 8, 4},
		{"halo2d", dsl("halo2d"), 64, 0},
	}
	pattern := pag.ContentionPattern()
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s_r%d_t%d", c.name, c.ranks, c.threads), func(t *testing.T) {
			res, err := collector.Collect(c.prog, collector.Options{Ranks: c.ranks, Threads: c.threads})
			if err != nil {
				t.Fatal(err)
			}
			data := res.Parallel.G
			for _, max := range []int{0, 1, 3, 64, 256} {
				check := func(opts graph.MatchOptions) {
					opts.MaxEmbeddings = max
					indexed := graph.MatchSubgraph(data, pattern, opts)
					opts.DisableLabelPruning = true
					naive := graph.MatchSubgraph(data, pattern, opts)
					if !reflect.DeepEqual(indexed, naive) {
						t.Fatalf("max %d anchored=%v anchor %d: indexed and naive matching disagree: %d vs %d embeddings",
							max, opts.Anchored, opts.Anchor, len(indexed), len(naive))
					}
				}
				check(graph.MatchOptions{})
				for v := 0; v < data.NumVertices(); v++ {
					check(graph.MatchOptions{Anchor: graph.VertexID(v), Anchored: true})
				}
			}
		})
	}
}
