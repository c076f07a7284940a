// Command precisions prints Table I of the paper: the parameters of the
// BFloat16/FP16/FP32/FP64 arithmetics and their peak rates on the GPUs
// the paper considers, as encoded in internal/precision.
//
// -errtrack writes the table as an error-provenance report: one stage
// per format carrying its unit roundoff as the theoretical bound, with
// no measurements — the bounds-only counterpart of the measured reports
// the simulating drivers emit, renderable by the same cmd/errmap.
package main

import (
	"fmt"
	"io"

	"repro/cmd/internal/driver"
	"repro/internal/obs/errtrack"
	"repro/internal/precision"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("precisions", stdout, stderr, 0)
	errtrackFlag := s.Flags.String("errtrack", "", "write the theoretical-bounds-only error-provenance report to this JSON file")
	if err := s.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "# Table I — floating-point arithmetic parameters")
	fmt.Fprintf(stdout, "%-10s%6s%14s%12s%12s%14s%10s%10s\n",
		"Format", "Bits", "Xmin,s", "Xmin", "Xmax", "UnitRoundoff", "V100", "MI100")
	for _, f := range precision.Formats {
		v100 := "N/A"
		if f.PeakV100 > 0 {
			v100 = fmt.Sprintf("%.1f", f.PeakV100)
		}
		fmt.Fprintf(stdout, "%-10s%6d%14.1e%12.1e%12.1e%14.1e%10s%10.1f\n",
			f.Name, f.Bits, f.XminSubnorm, f.XminNormal, f.Xmax, f.UnitRoundoff, v100, f.PeakMI100)
	}
	if *errtrackFlag != "" {
		cell := errtrack.CellReport{Cell: "table1"}
		for _, f := range precision.Formats {
			cell.Stages = append(cell.Stages, errtrack.StageReport{
				Label: f.Name, Bound: f.UnitRoundoff,
			})
		}
		rep := errtrack.Report{Cells: []errtrack.CellReport{cell}}
		if err := rep.WriteFile(*errtrackFlag); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# error-provenance report written: %s (theoretical bounds only)\n", *errtrackFlag)
	}
	return nil
}

func main() { driver.Main("precisions", run) }
