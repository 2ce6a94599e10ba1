// Package interactive implements the paper's interactive mode (§4.5): "for
// scenarios in which developers do not know what analysis to apply ... It
// is advisable to first use a general built-in analysis pass, such as
// hotspot detection. The output of the previous pass will provide some
// insights to help determine or design the next passes."
//
// The session holds a current set; each command applies one pass to it and
// prints the result, incrementally building the analysis the user would
// later freeze into a PerFlowGraph. `undo` pops the pass stack.
package interactive

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"perflow/internal/collector"
	"perflow/internal/core"
	"perflow/internal/ir"
	"perflow/internal/pag"
	"perflow/internal/viz"
	"perflow/internal/workloads"
)

// Session is one interactive analysis session.
type Session struct {
	out io.Writer

	res  *collector.Result
	cur  *core.Set
	past []*core.Set // undo stack
	name string

	// Collection overhead and PAG storage of res, measured when it loaded,
	// before any command annotates the PAG.
	overheadPct float64
	pagBytes    int64
}

// New creates a session writing to out.
func New(out io.Writer) *Session {
	return &Session{out: out}
}

// Run drives the session from r until EOF or "quit". Errors in individual
// commands are printed, not fatal.
func (s *Session) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	fmt.Fprintln(s.out, `PerFlow interactive mode — type "help" for commands`)
	s.prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			s.prompt()
			continue
		}
		if line == "quit" || line == "exit" {
			fmt.Fprintln(s.out, "bye")
			return nil
		}
		if err := s.Exec(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
		s.prompt()
	}
	return sc.Err()
}

func (s *Session) prompt() {
	n := 0
	if s.cur != nil {
		n = s.cur.Len()
	}
	fmt.Fprintf(s.out, "pflow[%s|%d]> ", s.name, n)
}

// Exec executes one command line.
func (s *Session) Exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
		return nil
	case "list":
		for _, n := range workloads.Names() {
			fmt.Fprintln(s.out, n)
		}
		return nil
	case "run":
		return s.cmdRun(args)
	case "load":
		return s.cmdLoad(args)
	case "info":
		return s.cmdInfo()
	case "timeline":
		return s.cmdTimeline()
	case "mpip":
		return s.withRun(func() error {
			core.WriteMPIProfile(s.out, core.MPIProfiler(s.res.TopDown))
			return nil
		})
	}

	if !setCommands[cmd] {
		return fmt.Errorf("unknown command %q — try help", cmd)
	}
	// Set-transforming commands need a current set.
	if s.res == nil {
		return fmt.Errorf("no program loaded — use: run <workload> [ranks] [threads]")
	}
	if s.cur == nil {
		s.cur = core.AllVertices(s.res.TopDown)
	}
	switch cmd {
	case "all":
		s.apply(core.AllVertices(s.res.TopDown))
	case "parallel":
		if s.res.Parallel == nil {
			return fmt.Errorf("no parallel view collected")
		}
		s.apply(core.Project(s.cur, s.res.Parallel))
	case "topdown":
		s.apply(core.Project(s.cur, s.res.TopDown))
	case "filter":
		if len(args) == 0 {
			return fmt.Errorf("usage: filter <glob>")
		}
		s.apply(s.cur.FilterName(args[0]))
	case "comm":
		s.apply(s.cur.FilterName("MPI_*"))
	case "hotspot":
		n := 10
		metric := pag.MetricExclTime
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return fmt.Errorf("bad count %q", args[0])
			}
			n = v
		}
		if len(args) > 1 {
			metric = args[1]
		}
		s.apply(core.Hotspot(s.cur, metric, n))
	case "imbalance":
		th := 1.2
		if len(args) > 0 {
			v, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return fmt.Errorf("bad threshold %q", args[0])
			}
			th = v
		}
		s.apply(core.Imbalance(s.cur, pag.MetricTime, th))
	case "breakdown":
		s.apply(core.Breakdown(s.cur))
	case "waitstates":
		s.apply(core.WaitStates(s.cur))
	case "causal":
		s.apply(core.Causal(s.cur))
	case "contention":
		if s.cur.PAG.View != pag.Parallel {
			return fmt.Errorf("contention detection runs on the parallel view — use: parallel")
		}
		s.apply(core.Contention(s.cur))
	case "backtrack":
		s.apply(core.Backtrack(s.cur, 0))
	case "critical":
		s.apply(core.CriticalPath(s.cur))
	case "community":
		groups := core.Community(s.cur)
		for i, g := range groups {
			if i == 10 {
				fmt.Fprintf(s.out, "... (%d more)\n", len(groups)-10)
				break
			}
			fmt.Fprintf(s.out, "community %d: %d vertices, %.1f us, hottest %s\n", g.ID, g.Size, g.Time, g.Hottest)
		}
		return nil
	case "sort":
		if len(args) == 0 {
			return fmt.Errorf("usage: sort <metric>")
		}
		s.apply(s.cur.SortBy(args[0]))
	case "top":
		n := 10
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return fmt.Errorf("bad count %q", args[0])
			}
			n = v
		}
		s.apply(s.cur.Top(n))
	case "undo":
		if len(s.past) == 0 {
			return fmt.Errorf("nothing to undo")
		}
		s.cur = s.past[len(s.past)-1]
		s.past = s.past[:len(s.past)-1]
		fmt.Fprintf(s.out, "restored set of %d vertices\n", s.cur.Len())
		return nil
	case "report":
		attrs := args
		if len(attrs) == 0 {
			attrs = []string{"name", "etime", "wait", "imbalance", "debug"}
		}
		rep := &core.Report{Attrs: attrs, MaxRows: 20}
		return rep.WriteSet(s.out, s.cur)
	case "json":
		return core.WriteJSON(s.out, s.name, s.cur)
	case "dot":
		if len(args) == 0 {
			return fmt.Errorf("usage: dot <file>")
		}
		return os.WriteFile(args[0], []byte(core.DOT(s.cur, s.name)), 0o644)
	case "graphml":
		if len(args) == 0 {
			return fmt.Errorf("usage: graphml <file>")
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		return s.cur.PAG.G.WriteGraphML(f, s.name)
	case "hist":
		metric := pag.MetricTime
		if len(args) > 0 {
			metric = args[0]
		}
		rows := core.TopProcesses(s.cur, metric, 0)
		vals := make([]float64, 0, len(rows))
		maxRank := 0
		for _, r := range rows {
			if r.Rank > maxRank {
				maxRank = r.Rank
			}
		}
		vals = make([]float64, maxRank+1)
		for _, r := range rows {
			vals[r.Rank] = r.Total
		}
		viz.Histogram(s.out, metric+" per process", vals, 50)
		return nil
	default:
		return fmt.Errorf("unknown command %q — try help", cmd)
	}
	return s.show()
}

// setCommands are the commands that operate on the current set (and thus
// need a loaded program).
var setCommands = map[string]bool{
	"all": true, "parallel": true, "topdown": true, "filter": true,
	"graphml": true, "hist": true,
	"comm": true, "hotspot": true, "imbalance": true, "breakdown": true,
	"waitstates": true, "causal": true, "contention": true, "backtrack": true,
	"critical": true, "community": true, "sort": true, "top": true,
	"undo": true, "report": true, "json": true, "dot": true,
}

// apply pushes the current set and replaces it.
func (s *Session) apply(next *core.Set) {
	s.past = append(s.past, s.cur)
	if len(s.past) > 64 {
		s.past = s.past[1:]
	}
	s.cur = next
}

// show prints a short summary of the current set after a transform.
func (s *Session) show() error {
	fmt.Fprintf(s.out, "set: %d vertices, %d edges on the %s view\n", s.cur.Len(), len(s.cur.E), s.cur.PAG.View)
	rep := &core.Report{Attrs: []string{"name", "etime", "wait", "debug"}, MaxRows: 8}
	return rep.WriteSet(s.out, s.cur)
}

func (s *Session) withRun(fn func() error) error {
	if s.res == nil {
		return fmt.Errorf("no program loaded — use: run <workload> [ranks] [threads]")
	}
	return fn()
}

func (s *Session) cmdRun(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: run <workload> [ranks] [threads]")
	}
	prog, err := workloads.Get(args[0])
	if err != nil {
		return err
	}
	return s.collect(prog, args[0], args[1:])
}

func (s *Session) cmdLoad(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: load <dsl-file> [ranks] [threads]")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	prog, err := ir.Parse(f)
	if err != nil {
		return err
	}
	return s.collect(prog, prog.Name, args[1:])
}

func (s *Session) collect(prog *ir.Program, name string, scaleArgs []string) error {
	ranks, threads := 8, 1
	if len(scaleArgs) > 0 {
		v, err := strconv.Atoi(scaleArgs[0])
		if err != nil {
			return fmt.Errorf("bad rank count %q", scaleArgs[0])
		}
		ranks = v
	}
	if len(scaleArgs) > 1 {
		v, err := strconv.Atoi(scaleArgs[1])
		if err != nil {
			return fmt.Errorf("bad thread count %q", scaleArgs[1])
		}
		threads = v
	}
	res, err := collector.Collect(prog, collector.Options{Ranks: ranks, Threads: threads})
	if err != nil {
		return err
	}
	_, pct, err := res.Overhead(context.Background())
	if err != nil {
		return err
	}
	s.res = res
	s.overheadPct, s.pagBytes = pct, res.PAGBytes()
	s.name = name
	s.cur = core.AllVertices(res.TopDown)
	s.past = nil
	fmt.Fprintf(s.out, "ran %s on %d ranks x %d threads: %.2f ms, %d events\n",
		name, ranks, threads, res.Run.TotalTime()/1000, res.Run.NumEvents())
	return nil
}

func (s *Session) cmdInfo() error {
	return s.withRun(func() error {
		nv, ne := s.res.TopDown.Size()
		fmt.Fprintf(s.out, "program %s: %.2f ms makespan, %d events\n", s.name, s.res.Run.TotalTime()/1000, s.res.Run.NumEvents())
		fmt.Fprintf(s.out, "top-down view: %d vertices, %d edges\n", nv, ne)
		if s.res.Parallel != nil {
			pv, pe := s.res.Parallel.Size()
			fmt.Fprintf(s.out, "parallel view: %d vertices, %d edges\n", pv, pe)
		}
		fmt.Fprintf(s.out, "collection: %.2f%% overhead, %d B PAG storage\n", s.overheadPct, s.pagBytes)
		stats := s.res.Run.ComputeStats()
		fmt.Fprintf(s.out, "communication share: %.2f%%\n", 100*stats.CommFraction)
		return nil
	})
}

func (s *Session) cmdTimeline() error {
	return s.withRun(func() error {
		viz.Timeline(s.out, s.res.Run, viz.TimelineOptions{})
		return nil
	})
}

func (s *Session) help() {
	cmds := map[string]string{
		"run <workload> [ranks] [threads]":      "simulate a built-in workload and build its PAG",
		"load <file> [ranks] [threads]":         "simulate a DSL program",
		"list":                                  "list built-in workloads",
		"info":                                  "run and PAG statistics",
		"all":                                   "reset the current set to every top-down vertex",
		"parallel / topdown":                    "project the current set onto the other view",
		"filter <glob> / comm":                  "keep vertices matching a name pattern",
		"hotspot [n] [metric]":                  "keep the n most expensive vertices",
		"imbalance [threshold]":                 "keep per-rank-imbalanced vertices",
		"breakdown":                             "classify communication time (transfer vs wait)",
		"waitstates":                            "classify waits (late-sender / collective / ...)",
		"causal":                                "lowest-common-ancestor root-cause candidates",
		"contention":                            "search contention patterns (parallel view)",
		"backtrack":                             "walk propagation paths backwards",
		"critical":                              "critical path of the current view",
		"community":                             "group the set into structural communities",
		"sort <metric> / top [n]":               "order and truncate the set",
		"report [attrs...] / json / dot <file>": "render the current set",
		"graphml <file> / hist [metric]":        "export for igraph / per-process bars",
		"timeline":                              "ASCII Gantt chart of the run",
		"mpip":                                  "mpiP-style statistical profile",
		"undo":                                  "pop the last transform",
		"quit":                                  "leave",
	}
	keys := make([]string, 0, len(cmds))
	for k := range cmds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(s.out, "  %-38s %s\n", k, cmds[k])
	}
}
