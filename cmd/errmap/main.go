// Command errmap renders the numerical-error provenance ledger: where
// the compression error of a run came from (which reshape stage, which
// (rank, peer) pair), how the measured error composed across the
// pipeline against the theoretical bound composition, and how the error
// budget burned over virtual time.
//
// Usage:
//
//	errmap -replay events.jsonl        # check a recorded event log, rebuild the ledger from it
//	errmap -artifact errtrack.json     # render a saved -errtrack report
//
// Both modes render the same errtrack.Report and print the same verdict
// line: the replay feeds the recorded stream through the identical
// observer code the recording run's tracker used, so a run's artifact
// and its offline replay cannot disagree. -replay reads the stream once
// and also checks its integrity (replay.go), printing the stream's
// shape and any INTEGRITY: lines above the ledger. The exit status is
// non-zero when the stream fails an integrity check or any stage
// exceeded its error budget.
package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/obs/errtrack"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("errmap", stdout, stderr, 0)
	replay := s.Flags.String("replay", "", "check a recorded JSONL event log and rebuild the ledger from it")
	artifact := s.Flags.String("artifact", "", "render a saved -errtrack report file")
	pairsFlag := s.Flags.Int("pairs", 10, "worst (rank, peer) pairs to list per stage (0 disables)")
	if err := s.Parse(args); err != nil {
		return err
	}

	var rep errtrack.Report
	var integrity []string
	var err error
	switch {
	case *replay != "" && *artifact != "":
		s.Flags.Usage()
		return driver.Usagef("-replay and -artifact are exclusive")
	case *replay != "":
		rep, integrity, err = replayStream(stdout, *replay)
	case *artifact != "":
		rep, err = errtrack.LoadReport(*artifact)
	default:
		s.Flags.Usage()
		return driver.Usagef("one of -replay, -artifact is required")
	}
	if err != nil {
		return err
	}

	render(stdout, rep, *pairsFlag)
	var failures []string
	if len(integrity) > 0 {
		failures = append(failures, "stream integrity: "+strings.Join(integrity, "; "))
	}
	if over := rep.OverBudget(); len(over) > 0 {
		failures = append(failures, fmt.Sprintf("%d stages over error budget", len(over)))
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

func main() { driver.Main("errmap", run) }

func render(w io.Writer, rep errtrack.Report, pairs int) {
	if len(rep.Cells) == 0 {
		fmt.Fprintln(w, "no error-attribution data (run with -eventlog/-errtrack and a lossy configuration)")
	}
	for _, c := range rep.Cells {
		if len(c.Stages) == 0 {
			continue // lossless cell: nothing to attribute
		}
		fmt.Fprintf(w, "== %s\n", c.Cell)
		led := errtrack.BuildLedger(c, nil)
		renderLedger(w, led)
		for _, s := range c.Stages {
			renderMatrix(w, s, pairs)
		}
		renderBurn(w, c)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, rep.Verdict())
}

// renderLedger prints the error-accumulation table: per stage, the
// measured worst relative error and its composition so far against the
// bound composition prod(1+b_i)−1.
func renderLedger(w io.Writer, led errtrack.Ledger) {
	fmt.Fprintf(w, "  %-12s %10s %12s %12s %12s %12s %7s %6s\n",
		"stage", "values", "measured", "bound", "cum meas", "cum bound", "share", "ok")
	for _, r := range led.Rows {
		ok := "ok"
		if !r.OK {
			ok = "OVER"
		}
		fmt.Fprintf(w, "  %-12s %10d %12.3e %12.3e %12.3e %12.3e %6.1f%% %6s\n",
			r.Label, r.Values, r.Measured, r.Bound, r.MeasuredCum, r.BoundCum, 100*r.Share, ok)
	}
}

// renderMatrix prints one stage's (rank, peer) attribution: the worst
// pairs, and — when the rank space is small enough to read — an ASCII
// heat matrix of max relative error scaled by the stage bound.
func renderMatrix(w io.Writer, s errtrack.StageReport, pairs int) {
	if len(s.Pairs) == 0 || pairs <= 0 {
		return
	}
	worst := append([]errtrack.PairStat(nil), s.Pairs...)
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].MaxRel != worst[j].MaxRel {
			return worst[i].MaxRel > worst[j].MaxRel
		}
		if worst[i].Rank != worst[j].Rank {
			return worst[i].Rank < worst[j].Rank
		}
		return worst[i].Peer < worst[j].Peer
	})
	if len(worst) > pairs {
		worst = worst[:pairs]
	}
	fmt.Fprintf(w, "  %s worst pairs (of %d", s.Label, len(s.Pairs))
	if s.DroppedPairs > 0 {
		fmt.Fprintf(w, ", %d not retained", s.DroppedPairs)
	}
	fmt.Fprintln(w, "):")
	fmt.Fprintf(w, "    %6s %6s %10s %12s %12s\n", "rank", "peer", "n", "max_rel", "rms")
	for _, p := range worst {
		fmt.Fprintf(w, "    %6d %6d %10d %12.3e %12.3e\n", p.Rank, p.Peer, p.N, p.MaxRel, p.RMS)
	}
	heatMatrix(w, s)
}

// heatMatrix draws rank (rows) × peer (columns) as one shade character
// per pair: '.' for near-zero error up to '@' at (or beyond) the stage
// bound. Skipped when the rank space would not fit a terminal.
const heatRamp = ".:-=+*#%@"

func heatMatrix(w io.Writer, s errtrack.StageReport) {
	maxID := 0
	for _, p := range s.Pairs {
		if p.Rank > maxID {
			maxID = p.Rank
		}
		if p.Peer > maxID {
			maxID = p.Peer
		}
	}
	if maxID >= 48 || len(s.Pairs) == 0 {
		return
	}
	scale := s.Bound
	if scale <= 0 {
		scale = s.WorstRel
	}
	if scale <= 0 {
		return
	}
	grid := make([][]byte, maxID+1)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", maxID+1))
	}
	for _, p := range s.Pairs {
		idx := int(p.MaxRel / scale * float64(len(heatRamp)-1))
		if idx >= len(heatRamp) {
			idx = len(heatRamp) - 1
		}
		if idx < 0 {
			idx = 0
		}
		grid[p.Rank][p.Peer] = heatRamp[idx]
	}
	fmt.Fprintf(w, "    %s rank×peer heat ('%c'≈0 … '%c'=bound %.2e):\n",
		s.Label, heatRamp[0], heatRamp[len(heatRamp)-1], scale)
	for rank, row := range grid {
		fmt.Fprintf(w, "    %4d |%s|\n", rank, row)
	}
}

// renderBurn draws each stage's budget burn over virtual time: the time
// span bucketed into fixed columns, each column shaded by its worst
// relative error against the stage bound.
func renderBurn(w io.Writer, c errtrack.CellReport) {
	const cols = 60
	for _, s := range c.Stages {
		if len(s.Series) < 2 {
			continue
		}
		tMin, tMax := s.Series[0].T, s.Series[0].T
		for _, p := range s.Series[1:] {
			if p.T < tMin {
				tMin = p.T
			}
			if p.T > tMax {
				tMax = p.T
			}
		}
		if tMax <= tMin {
			continue
		}
		scale := s.Bound
		if scale <= 0 {
			scale = s.WorstRel
		}
		if scale <= 0 {
			continue
		}
		buckets := make([]float64, cols)
		for _, p := range s.Series {
			i := int((p.T - tMin) / (tMax - tMin) * float64(cols-1))
			if p.MaxRel > buckets[i] {
				buckets[i] = p.MaxRel
			}
		}
		line := make([]byte, cols)
		for i, v := range buckets {
			if v == 0 {
				line[i] = ' '
				continue
			}
			idx := int(v / scale * float64(len(heatRamp)-1))
			if idx >= len(heatRamp) {
				idx = len(heatRamp) - 1
			}
			line[i] = heatRamp[idx]
		}
		trunc := ""
		if s.SeriesTotal > int64(len(s.Series)) {
			trunc = fmt.Sprintf(" (%d of %d samples retained)", len(s.Series), s.SeriesTotal)
		}
		fmt.Fprintf(w, "  %s burn %.3gs..%.3gs |%s| worst %.2e of %.2e, drift %.2f%s\n",
			s.Label, tMin, tMax, line, s.WorstRel, scale, s.Drift, trunc)
	}
}
