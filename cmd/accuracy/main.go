// Command accuracy regenerates the paper's accuracy results:
//
//   - Table II (-table2): the relative FFT round-trip error
//     ‖x − IFFT(FFT(x))‖/‖x‖ for FP64, FP32, and the mixed-precision
//     FP64→FP32 compressed exchange, across GPU counts.
//   - Fig. 2 (-fig2): the error as the communication mantissa is trimmed
//     bit by bit, together with the theoretical acceleration 64/bits,
//     plus the FP64, FP32, and MP 64/32 reference lines.
//
// Usage:
//
//	go run ./cmd/accuracy -table2 [-n 64] [-gpus 12,24,...]
//	go run ./cmd/accuracy -fig2 [-n 32] [-gpus 12]
//	                      [-trace out.json] [-metrics]
//
// -trace writes a Chrome-trace JSON of the last measured cell (analyze
// it with cmd/tracetool); -metrics prints its phase-breakdown report.
package main

import (
	"fmt"
	"io"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("accuracy", stdout, stderr, driver.Observe)
	s.Lazy = true
	table2 := s.Flags.Bool("table2", false, "reproduce Table II")
	fig2 := s.Flags.Bool("fig2", false, "reproduce Fig. 2")
	nFlag := s.Flags.Int("n", 64, "cubic problem size per dimension")
	s.Flags.String("gpus", "12,24,48,96,192,384,768,1536", "GPU counts for -table2 (multiples of 6)")
	fig2GPUs := s.Flags.Int("fig2gpus", 12, "GPU count for the -fig2 sweep")
	if err := s.Parse(args); err != nil {
		return err
	}
	if !*table2 && !*fig2 {
		*table2, *fig2 = true, true
	}
	if *fig2 {
		if err := driver.CheckGPUs("-fig2gpus", *fig2GPUs); err != nil {
			return err
		}
	}
	if err := s.Start(); err != nil {
		return err
	}
	n := [3]int{*nFlag, *nFlag, *nFlag}
	if *table2 {
		runTable2(s, n)
	}
	if *fig2 {
		runFig2(s, n, *fig2GPUs)
	}
	return s.Finish()
}

func main() { driver.Main("accuracy", run) }

// references measures the three reference pipelines both tables quote —
// FP64, FP32 and the mixed-precision FP64→FP32 compressed exchange — and
// returns their round-trip errors.
func references(s *driver.Session, n [3]int, g int) (e64, e32, eMP float64) {
	cfg := s.Machine(g)
	cell := func(name string) *obs.Recorder {
		c := fmt.Sprintf("%s @ %d GPUs", name, g)
		return s.Recorder(c, c)
	}
	e64 = core.MeasureWith[complex128](cell("fp64"), cfg, n, core.Options{Backend: core.BackendAlltoallv}, 0, true).RelErr
	e32 = core.MeasureWith[complex64](cell("fp32"), cfg, n, core.Options{Backend: core.BackendAlltoallv}, 0, true).RelErr
	eMP = core.MeasureWith[complex128](cell("fp64-32"), cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{},
	}, 0, true).RelErr
	return e64, e32, eMP
}

func runTable2(s *driver.Session, n [3]int) {
	fmt.Fprintf(s.Stdout, "# Table II — relative FFT error ‖x − IFFT(FFT(x))‖/‖x‖, %d^3 problem\n", n[0])
	fmt.Fprintf(s.Stdout, "%8s%14s%14s%14s\n", "GPUs", "FP64", "FP32", "FP64->FP32")
	for _, g := range s.GPUs {
		e64, e32, eMP := references(s, n, g)
		fmt.Fprintf(s.Stdout, "%8d%14.2e%14.2e%14.2e\n", g, e64, e32, eMP)
	}
}

func runFig2(s *driver.Session, n [3]int, gpus int) {
	cfg := s.Machine(gpus)
	fmt.Fprintf(s.Stdout, "\n# Fig. 2 — accuracy vs bits in the communicated values, %d^3 problem, %d GPUs\n", n[0], gpus)
	fmt.Fprintf(s.Stdout, "# (bits = 1 sign + 11 exponent + M mantissa; theoretical speedup = 64/bits)\n")
	fmt.Fprintf(s.Stdout, "%8s%10s%14s%14s\n", "bits", "mantissa", "rel.err", "speedup")
	for m := 52; m >= 4; m -= 4 {
		method := compress.Trim{M: uint(m)}
		cell := fmt.Sprintf("trim-%d @ %d GPUs", m, gpus)
		r := core.MeasureWith[complex128](s.Recorder(cell, cell), cfg, n, core.Options{
			Backend: core.BackendCompressed, Method: method,
		}, 0, true)
		fmt.Fprintf(s.Stdout, "%8d%10d%14.2e%14.2f\n", method.BitsPerValue(), m, r.RelErr, 64/float64(method.BitsPerValue()))
	}
	e64, e32, eMP := references(s, n, gpus)
	fmt.Fprintf(s.Stdout, "# references: FP64 %.2e | FP32 (full pipeline) %.2e | MP 64/32 %.2e\n", e64, e32, eMP)
}
