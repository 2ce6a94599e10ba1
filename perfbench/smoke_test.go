package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints exactly the metrics BENCHMARK.json defines, with their
// units, and that no request failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	orc, err := loadOracle("digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		spec := findWorkload(w.Name)
		if spec == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			env := &runEnv{seed: 1, seconds: time.Second, trace: traced, workdir: t.TempDir(), oracle: orc}
			res, err := runOne(context.Background(), spec, env, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d requests failed", w.Name, traced, res.Failed, res.Attempted)
			}
			var got, exp []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, d := range want {
				exp = append(exp, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json defines %v", w.Name, traced, got, exp)
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s traced=%v: metric %q, BENCHMARK.json defines %q", w.Name, traced, got[i], exp[i])
				}
			}
		}
	}
}
