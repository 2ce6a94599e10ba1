package collector

import (
	"fmt"
	"io"
	"strings"

	"perflow/internal/trace"
)

// Coverage summarizes how much of a degraded run's data survived — the
// per-rank roll-up that reports and the serve API expose so a partial
// analysis is clearly labeled as such.
type Coverage struct {
	NRanks   int
	Complete int   // ranks with clean, complete streams
	Crashed  []int // ranks that died mid-run
	Stalled  []int // ranks truncated while blocked on a dead/silent peer
	Salvaged []int // ranks with RankStatus.Salvaged; nothing sets it, so empty
	Slow     []int // ranks with injected compute dilation (complete data)

	DroppedMsgs int // messages the network dropped
	LostEvents  int // summed RankStatus.LostEvents; nothing sets it, so 0

	// Status is the underlying per-rank detail.
	Status []trace.RankStatus
}

// CoverageOf rolls up a run's per-rank status; nil for a clean run.
func CoverageOf(run *trace.Run) *Coverage {
	if run == nil || len(run.Status) == 0 {
		return nil
	}
	c := &Coverage{NRanks: run.NRanks, Status: run.Status}
	if c.NRanks < len(run.Status) {
		c.NRanks = len(run.Status)
	}
	for r, s := range run.Status {
		switch {
		case s.Crashed:
			c.Crashed = append(c.Crashed, r)
		case s.Stalled:
			c.Stalled = append(c.Stalled, r)
		case s.Salvaged || s.LostEvents > 0:
			c.Salvaged = append(c.Salvaged, r)
		}
		if s.SlowFactor > 1 {
			c.Slow = append(c.Slow, r)
		}
		c.DroppedMsgs += s.DroppedMsgs
		c.LostEvents += s.LostEvents
	}
	c.Complete = c.NRanks - len(c.Crashed) - len(c.Stalled) - len(c.Salvaged)
	return c
}

// Degraded reports whether any rank's data is incomplete.
func (c *Coverage) Degraded() bool {
	return c != nil && (len(c.Crashed) > 0 || len(c.Stalled) > 0 || len(c.Salvaged) > 0 || c.DroppedMsgs > 0)
}

// Summary renders the one-line roll-up used for the lint-channel
// diagnostic ("DQ001") and log lines.
func (c *Coverage) Summary() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("%d/%d ranks complete", c.Complete, c.NRanks))
	if len(c.Crashed) > 0 {
		parts = append(parts, fmt.Sprintf("crashed %v", c.Crashed))
	}
	if len(c.Stalled) > 0 {
		parts = append(parts, fmt.Sprintf("stalled %v", c.Stalled))
	}
	if len(c.Salvaged) > 0 {
		parts = append(parts, fmt.Sprintf("salvaged %v", c.Salvaged))
	}
	if c.DroppedMsgs > 0 {
		parts = append(parts, fmt.Sprintf("%d messages dropped", c.DroppedMsgs))
	}
	if c.LostEvents > 0 {
		parts = append(parts, fmt.Sprintf("%d events lost", c.LostEvents))
	}
	if len(c.Slow) > 0 {
		parts = append(parts, fmt.Sprintf("slow %v", c.Slow))
	}
	return strings.Join(parts, ", ")
}

// Write renders the data-quality report section: the roll-up line plus
// one line per affected rank. Output is deterministic (rank order).
func (c *Coverage) Write(w io.Writer) {
	fmt.Fprintln(w, "-- data quality --")
	fmt.Fprintf(w, "%s\n", c.Summary())
	for r, s := range c.Status {
		switch {
		case s.Crashed:
			fmt.Fprintf(w, "rank %d: crashed at t=%.1f", r, s.CrashTime)
		case s.Stalled:
			fmt.Fprintf(w, "rank %d: stalled in %s, truncated at t=%.1f", r, s.StallOp, s.StallTime)
		case s.Salvaged || s.LostEvents > 0:
			fmt.Fprintf(w, "rank %d: stream salvaged, %d events lost", r, s.LostEvents)
		default:
			continue
		}
		if s.DroppedMsgs > 0 {
			fmt.Fprintf(w, " (%d sends dropped)", s.DroppedMsgs)
		}
		fmt.Fprintln(w)
	}
	for r, s := range c.Status {
		if !s.Crashed && !s.Stalled && !s.Salvaged && s.LostEvents == 0 && s.DroppedMsgs > 0 {
			fmt.Fprintf(w, "rank %d: %d sends dropped\n", r, s.DroppedMsgs)
		}
		if s.SlowFactor > 1 {
			fmt.Fprintf(w, "rank %d: compute dilated %gx (data complete)\n", r, s.SlowFactor)
		}
	}
	fmt.Fprintln(w, "metrics from incomplete ranks are tagged data_quality=partial")
}
