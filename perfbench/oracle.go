package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"perflow"
)

// oracle checks outputs against the checked-in SHA-256 digests, keyed by
// request identifier. The digests cover every request any seed can draw,
// so every seed is checked. The first output of an identifier is hashed;
// later outputs of the same identifier are compared byte for byte with it,
// which keeps the check cheap enough to run on every timed request.
type oracle struct {
	want map[string]string

	mu   sync.Mutex
	seen map[string][]byte
}

func loadOracle(path string) (*oracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	defer f.Close()
	o := &oracle{want: map[string]string{}, seen: map[string][]byte{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("digests: malformed line %q", line)
		}
		o.want[id] = sum
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return o, nil
}

// check reports whether out is the expected output of request id.
func (o *oracle) check(id string, out []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.seen[id]; ok {
		if !bytes.Equal(prev, out) {
			return fmt.Errorf("%s: output differs from its checked digest", id)
		}
		return nil
	}
	want, ok := o.want[id]
	if !ok {
		return fmt.Errorf("%s: no checked-in digest", id)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s: digest %s, want %s", id, got, want)
	}
	o.seen[id] = append([]byte(nil), out...)
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputBytes is what the oracle digests for one request: the report text,
// a NUL, and the policy violations as JSON (an empty list when none).
func outputBytes(report []byte, viol []perflow.PolicyViolation) []byte {
	if viol == nil {
		viol = []perflow.PolicyViolation{}
	}
	vj, err := json.Marshal(viol)
	if err != nil {
		vj = []byte(err.Error())
	}
	out := make([]byte, 0, len(report)+1+len(vj))
	out = append(out, report...)
	out = append(out, 0)
	return append(out, vj...)
}

// writeDigests executes every workload's request universe once and writes
// the digest file.
func writeDigests(ctx context.Context, path string) error {
	var lines []string
	for _, w := range workloads {
		cases := w.universe()
		for i, c := range cases {
			out, err := c.exec(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", c.id, err)
			}
			lines = append(lines, c.id+" "+digest(out))
			if (i+1)%25 == 0 || i+1 == len(cases) {
				fmt.Fprintf(os.Stderr, "%s: %d/%d\n", w.name, i+1, len(cases))
			}
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	b.WriteString("# SHA-256 of every report the benchmark's workloads can request (report, NUL, policy violations as JSON).\n")
	b.WriteString("# Regenerate with: bash perfbench/run.sh -gen-digests\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
