package ir

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzParse when PERFLOW_GEN_CORPUS=1 is set: one entry per
// shipped example program (including the planted-defect fixtures) plus
// minimal statements covering each grammar production, so `go test`
// replays them as regression inputs even without -fuzz.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PERFLOW_GEN_CORPUS") == "" {
		t.Skip("set PERFLOW_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzParse")
	}
	seeds := map[string]string{
		"empty":           "",
		"minimal":         "program p\nfunc main file a.c line 1\nend\n",
		"compute_expr":    "program p\nentry e\nfunc e file a.c line 1\ncompute k line 2 cost 10/P slope 0.5\nend\n",
		"loop_collective": "program p\nfunc main file a.c line 1\nloop l line 2 trips 4\nmpi allreduce line 3 bytes 8\nend\nend\n",
		"isend_wait":      "program p\nfunc main file a.c line 1\nmpi isend line 2 to right bytes 1024 tag 7 req r\nmpi wait line 3 req r\nend\n",
		"parallel_region": "program p\nfunc main file a.c line 1\nparallel r line 2 threads 4 workshare\ncompute c line 3 cost 5\nend\nend\n",
		"gpu_kernel":      "program p\nfunc main file a.c line 1\nkernel k line 2 cost 100 h2d 8 d2h 8 stream 1 async\ndevsync line 3\nend\n",
		"lint_disable":    "# lint:disable=PF013\nprogram p\nfunc main file a.c line 1\nmpi send line 2 to rank 0 bytes 8 tag 1\nend\n",
		"mutex_alloc":     "program p\nkloc 1.5\nbinary 123\nfunc main file a.c line 1\nmutex m line 2 count 4 hold 2\nalloc allocate line 3 count 8/sqrtP hold 1\nend\n",
	}
	for _, pattern := range []string{
		filepath.Join("..", "..", "examples", "dsl", "*.pfl"),
		filepath.Join("..", "..", "examples", "dsl", "bad", "*.pfl"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			name := "example_" + filepath.Base(p)
			if filepath.Base(filepath.Dir(p)) == "bad" {
				name = "example_bad_" + filepath.Base(p)
			}
			seeds[name] = string(src)
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range seeds {
		entry := fmt.Sprintf("go test fuzz v1\nstring(%s)\n", strconv.Quote(src))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
