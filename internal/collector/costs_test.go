package collector_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perflow/internal/collector"
	"perflow/internal/experiments"
	"perflow/internal/mpisim"
	"perflow/internal/workloads"
)

var updateCosts = flag.Bool("update", false, "rewrite testdata/costs.golden")

// costsFault is the faulted case of the costs golden: a crashed rank and a
// rank whose sends are half dropped, so the reference run must inherit the
// plan for the figures to match.
const costsFault = "seed=3;crash:rank=5,at=400;drop:rank=1,after=100,prob=0.5"

// costs computes a result's Table 1 accounting through the on-demand
// accessors.
func costs(ctx context.Context, res *collector.Result) (clean, pct float64, bytes int64, err error) {
	clean, pct, err = res.Overhead(ctx)
	return clean, pct, res.PAGBytes(), err
}

// costsReport collects every Table 1 program at 8 ranks (vite with 4
// threads) plus one faulted collection and renders their costs.
func costsReport(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(label string, p func() (*collector.Result, error)) {
		res, err := p()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		clean, pct, bytes, err := costs(context.Background(), res)
		if err != nil {
			t.Fatalf("%s: costs: %v", label, err)
		}
		fmt.Fprintf(&b, "%s clean=%v overhead_pct=%v pag_bytes=%v\n", label, clean, pct, bytes)
	}
	for _, name := range experiments.Table1Programs() {
		p, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		threads := 1
		if name == "vite" {
			threads = 4
		}
		line(name, func() (*collector.Result, error) {
			return collector.Collect(p, collector.Options{Ranks: 8, Threads: threads})
		})
	}
	plan, err := mpisim.ParseFaultPlan(costsFault)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	line("cg+faults", func() (*collector.Result, error) {
		return collector.Collect(p, collector.Options{Ranks: 8, Faults: plan})
	})
	return b.String()
}

// TestCostsGolden pins Table 1's dynamic-overhead and storage figures for
// every evaluated program byte for byte.
func TestCostsGolden(t *testing.T) {
	got := costsReport(t)
	path := filepath.Join("testdata", "costs.golden")
	if *updateCosts {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("costs differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestOverheadCancellation: the reference run honors its context, and a
// canceled call leaves nothing behind — a later call with a live context
// reproduces the golden figures.
func TestOverheadCancellation(t *testing.T) {
	p, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	res, err := collector.Collect(p, collector.Options{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := res.Overhead(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Overhead: err = %v, want context.Canceled", err)
	}
	clean, pct, bytes, err := costs(context.Background(), res)
	if err != nil {
		t.Fatalf("live Overhead after cancel: %v", err)
	}
	got := fmt.Sprintf("cg clean=%v overhead_pct=%v pag_bytes=%v", clean, pct, bytes)
	want, err := os.ReadFile(filepath.Join("testdata", "costs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), got+"\n") {
		t.Errorf("after cancel: %q is not a line of costs.golden", got)
	}
}

// TestOverheadNeedsCollectedResult: a Result rebuilt without a program
// reports an error instead of replaying nothing.
func TestOverheadNeedsCollectedResult(t *testing.T) {
	if _, _, err := (&collector.Result{}).Overhead(context.Background()); err == nil {
		t.Error("Overhead on an uncollected result: want an error")
	}
}
