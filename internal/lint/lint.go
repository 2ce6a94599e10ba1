// Package lint is the static diagnostics engine over the PerFlow IR,
// modeled on go/analysis: each check is a registered Analyzer with a name,
// a stable diagnostic code, documentation, and a default severity; running
// the driver produces structured Diagnostics (code, severity, file:line
// position, message, related positions) aggregated deterministically across
// analyzers.
//
// The MPI checks are rank-symbolic: instead of executing the program, they
// resolve each rank's communication statically from the symbolic dataflow
// model of internal/sdf (peer patterns, branch conditions, and loop trip
// counts are all evaluable per rank) and compare across ranks — statically
// matching sends to receives, detecting blocking cycles, and spotting
// divergent collectives. Because a program can be correct at one
// communicator size and broken at another, peer-sensitive analyzers model
// several sizes and report only findings that hold at every size (see
// Pass.Sizes), which keeps size-specific pipelines from producing false
// alarms.
//
// Findings can be muted per statement with "# lint:disable=CODE[,CODE]"
// comments in the DSL (see ir.ParseLenient).
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"perflow/internal/ir"
	"perflow/internal/sdf"
)

// Severity classifies how a finding affects a run: errors abort
// perflow.Run before simulation, warnings attach to PAG vertices, infos
// are report-only.
type Severity int

// Severity levels, ordered by increasing gravity.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevError
)

// String returns "info", "warning", or "error".
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes the string name back into a severity, so
// diagnostics embedded in API payloads round-trip.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Position is a file:line source location from the IR's debug info.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
}

// String renders "file:line", or "-" when the node has no debug info.
func (p Position) String() string {
	if p.File == "" {
		return "-"
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// Related points at a secondary location that explains a finding (the
// previous issue of a reused request, the mismatched receive of a send).
type Related struct {
	Position
	Message string `json:"message"`
}

// Diagnostic is one finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Position
	Fn      string    `json:"func,omitempty"`
	Message string    `json:"message"`
	Node    ir.NodeID `json:"-"` // anchor node, for PAG attachment and suppression
	Related []Related `json:"related,omitempty"`
}

// Analyzer is one registered check. Run inspects the pass's program and
// reports diagnostics; the driver stamps each with the analyzer's Code and
// Severity so one analyzer maps to exactly one diagnostic code.
type Analyzer struct {
	Name     string
	Code     string
	Doc      string
	Severity Severity
	Run      func(*Pass)
}

var registry []Analyzer

// Register adds an analyzer to the global registry. Analyzer files call it
// from init; the driver runs analyzers in name order regardless of
// registration order.
func Register(a Analyzer) { registry = append(registry, a) }

// Analyzers returns the registered analyzers sorted by name.
func Analyzers() []Analyzer {
	out := append([]Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pass carries one analyzer's view of the program under analysis, plus
// caches shared across analyzers within a Run.
type Pass struct {
	Prog  *ir.Program
	Ranks int // fixed communicator size; 0 = model several sizes

	an    Analyzer
	cache *runCache
	diags []Diagnostic
}

// Sizes returns the communicator sizes to model. A fixed Ranks option
// yields exactly that size; otherwise several sizes are modeled and
// peer-sensitive analyzers report only findings present at every one.
func (ps *Pass) Sizes() []int {
	if ps.Ranks > 0 {
		return []int{ps.Ranks}
	}
	return []int{4, 8, 16}
}

// Comms returns the statically resolved communication sequence of one rank
// at the given communicator size, evaluated from the symbolic dataflow
// model and cached across analyzers.
func (ps *Pass) Comms(rank, size int) []commOp { return ps.cache.comms(rank, size) }

// Model returns the program's symbolic dataflow model, shared across
// analyzers.
func (ps *Pass) Model() *sdf.Model { return ps.cache.symModel() }

// WitnessSizes returns the communicator sizes worth probing symbolically —
// every size at which some closed form in the IR changes behavior — cached
// across analyzers. See sdf.WitnessSizes.
func (ps *Pass) WitnessSizes() []int {
	if ps.cache.witness == nil {
		ps.cache.witness = sdf.WitnessSizes(ps.Prog)
	}
	return ps.cache.witness
}

// Violations returns the program's structural violations, cached across
// analyzers.
func (ps *Pass) Violations() []ir.Violation { return ps.cache.violations() }

// Report records a finding, stamping the analyzer's code and severity.
func (ps *Pass) Report(d Diagnostic) {
	d.Code = ps.an.Code
	d.Analyzer = ps.an.Name
	d.Severity = ps.an.Severity
	ps.diags = append(ps.diags, d)
}

// diag builds a Diagnostic anchored at an IR node.
func (ps *Pass) diag(n ir.Node, fn, format string, args ...any) Diagnostic {
	info := ir.InfoOf(n)
	return Diagnostic{
		Position: Position{File: info.File, Line: info.Line},
		Fn:       fn,
		Node:     info.ID(),
		Message:  fmt.Sprintf(format, args...),
	}
}

// related builds a Related entry anchored at an IR node.
func related(n ir.Node, format string, args ...any) Related {
	info := ir.InfoOf(n)
	return Related{
		Position: Position{File: info.File, Line: info.Line},
		Message:  fmt.Sprintf(format, args...),
	}
}

// diagKey identifies a finding for cross-size intersection: the anchor
// node plus a discriminator (request name, message) for analyzers that can
// report several findings on one node.
type diagKey struct {
	node  ir.NodeID
	extra string
}

// reportAtEverySize reports the findings present at every modeled size,
// with message text taken from the first (smallest) size.
func reportAtEverySize(ps *Pass, findings func(size int) map[diagKey]Diagnostic) {
	sizes := ps.Sizes()
	perSize := make([]map[diagKey]Diagnostic, len(sizes))
	for i, size := range sizes {
		perSize[i] = findings(size)
	}
	for k, d := range perSize[0] {
		everywhere := true
		for _, m := range perSize[1:] {
			if _, hit := m[k]; !hit {
				everywhere = false
				break
			}
		}
		if everywhere {
			ps.Report(d)
		}
	}
}

// runCache shares per-program computations across the analyzers of one Run.
// The per-size findings are computed once per size and read by every
// analyzer that needs them: PF010, PF011 and PF031 share the request walk,
// PF012, PF014 and PF036 the channel aggregation, PF020 and PF032 the
// collective reach counts.
type runCache struct {
	prog    *ir.Program
	ops     map[[2]int][]commOp // (rank, size) -> resolved comm sequence
	viol    []ir.Violation
	violSet bool
	model   *sdf.Model // lazily built
	witness []int      // lazily derived witness sizes

	requests   map[int]requestResult
	matches    map[int]matchResult
	divergence map[int]map[diagKey]Diagnostic
}

// symModel lazily builds the symbolic dataflow model, once per Run. Run
// has checked that the entry function exists, so sdf.New cannot fail.
func (c *runCache) symModel() *sdf.Model {
	if c.model == nil {
		c.model, _ = sdf.New(c.prog)
	}
	return c.model
}

func (c *runCache) comms(rank, size int) []commOp {
	if c.ops == nil {
		c.ops = map[[2]int][]commOp{}
	}
	key := [2]int{rank, size}
	if ops, ok := c.ops[key]; ok {
		return ops
	}
	ops := modelComms(c.symModel(), rank, size)
	c.ops[key] = ops
	return ops
}

// perSize returns the memoized value of compute for one size.
func perSize[T any](memo *map[int]T, size int, compute func() T) T {
	if v, ok := (*memo)[size]; ok {
		return v
	}
	if *memo == nil {
		*memo = map[int]T{}
	}
	v := compute()
	(*memo)[size] = v
	return v
}

func (c *runCache) violations() []ir.Violation {
	if !c.violSet {
		c.viol = c.prog.Violations()
		c.violSet = true
	}
	return c.viol
}

// Options configures a lint run.
type Options struct {
	// Ranks fixes the communicator size to analyze. 0 models sizes 4, 8,
	// and 16 and keeps only findings that hold at every one.
	Ranks int
	// Analyzers names the analyzers to run; empty runs all of them.
	Analyzers []string
}

// Run lints a program with the registered analyzers and returns its
// findings sorted by (file, line, code, message). Suppressed findings
// ("# lint:disable" on the node) are dropped. The error return is reserved
// for programs whose structure cannot be indexed (duplicate functions,
// missing entry); findings themselves never make Run fail.
func Run(prog *ir.Program, opts Options) ([]Diagnostic, error) {
	if !prog.Finalized() {
		if err := prog.FinalizeStructure(); err != nil {
			return nil, err
		}
	}
	want := map[string]bool{}
	for _, name := range opts.Analyzers {
		want[name] = true
	}
	cache := &runCache{prog: prog}
	var diags []Diagnostic
	for _, an := range Analyzers() {
		if len(want) > 0 && !want[an.Name] {
			continue
		}
		ps := &Pass{Prog: prog, Ranks: opts.Ranks, an: an, cache: cache}
		an.Run(ps)
		diags = append(diags, ps.diags...)
	}
	kept := diags[:0]
	for _, d := range diags {
		if n := prog.Node(d.Node); n != nil && ir.InfoOf(n).LintSuppressed(d.Code) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// HasErrors reports whether any finding has error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns the error-severity findings.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Write renders findings in the compiler-style text format
//
//	file:line: severity: message [CODE]
//		relatedfile:line: related message
func Write(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		pos := d.Position.String()
		if pos == "-" && d.Fn != "" {
			pos = d.Fn
		}
		if _, err := fmt.Fprintf(w, "%s: %s: %s [%s]\n", pos, d.Severity, d.Message, d.Code); err != nil {
			return err
		}
		for _, r := range d.Related {
			if _, err := fmt.Fprintf(w, "\t%s: %s\n", r.Position, r.Message); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders findings as an indented JSON array (never null).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// Error is the failure perflow.Run returns when a program has
// error-severity findings: the run is aborted before simulation.
type Error struct {
	Diagnostics []Diagnostic // all findings of the run, not only errors
}

// Error summarizes the error-severity findings, one per line.
func (e *Error) Error() string {
	errs := Errors(e.Diagnostics)
	var b strings.Builder
	fmt.Fprintf(&b, "lint: %d error finding(s)", len(errs))
	for _, d := range errs {
		fmt.Fprintf(&b, "\n  %s: %s [%s]", d.Position, d.Message, d.Code)
	}
	return b.String()
}
