// Command sweep regenerates every experiment of EXPERIMENTS.md in one
// run, writing one file per table/figure into an output directory.
//
//	go run ./cmd/sweep [-out results] [-quick] [-trace DIR] [-metrics]
//
// -quick caps the GPU counts at 96 and shrinks problems so the whole
// sweep finishes in well under a minute (CI mode); the default runs the
// full 12…1536-GPU sweeps. -metrics passes -metrics to every driver
// that supports it, so each output file ends with the phase/metrics
// report of its last cell; -trace DIR collects one Chrome-trace JSON
// per job (<dir>/<job>.trace.json), ready for cmd/tracetool; -errtrack
// DIR collects one error-provenance report per job
// (<dir>/<job>.errtrack.json), ready for cmd/errmap -artifact.
package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/cmd/internal/driver"
)

type job struct {
	file string
	args []string
	// observable marks drivers that accept -trace/-metrics; tunable the
	// ones that accept -autotune (the two bench drivers).
	observable bool
	tunable    bool
}

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("sweep", stdout, stderr, 0)
	out := s.Flags.String("out", "results", "output directory")
	quick := s.Flags.Bool("quick", false, "small, fast configuration")
	traceDir := s.Flags.String("trace", "", "collect per-job Chrome traces into this directory")
	errtrackDir := s.Flags.String("errtrack", "", "collect per-job error-provenance reports into this directory")
	metrics := s.Flags.Bool("metrics", false, "append each driver's metrics report to its output file")
	autotune := s.Flags.Bool("autotune", false, "add the autotuned configuration to the fig3/fig4 jobs (docs/TUNING.md)")
	if err := s.Parse(args); err != nil {
		return err
	}

	for _, dir := range []string{*out, *traceDir, *errtrackDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	gpus := "12,24,48,96,192,384,768,1536"
	fig3GPUs := "6,12,24,48,96,192,384,768,1536"
	n, sim, t2n, f2n := "64", "1024", "128", "64"
	iters := "2"
	ablGPUs := "96"
	if *quick {
		gpus = "12,24,48,96"
		fig3GPUs = "6,12,24,48,96"
		n, sim, t2n, f2n = "32", "256", "32", "32"
		iters = "1"
		ablGPUs = "24"
	}

	jobs := []job{
		{"table1.txt", []string{"run", "./cmd/precisions"}, false, false},
		{"fig3.txt", []string{"run", "./cmd/alltoallbench", "-gpus", fig3GPUs, "-iters", iters}, true, true},
		{"fig4.txt", []string{"run", "./cmd/fftbench", "-n", n, "-sim", sim, "-gpus", gpus, "-iters", "1"}, true, true},
		{"table2.txt", []string{"run", "./cmd/accuracy", "-table2", "-n", t2n, "-gpus", gpus}, true, false},
		{"fig2.txt", []string{"run", "./cmd/accuracy", "-fig2", "-n", f2n, "-fig2gpus", "12"}, true, false},
		{"ablation.txt", []string{"run", "./cmd/ablation", "-gpus", ablGPUs}, true, false},
	}
	for _, j := range jobs {
		args := j.args
		name := strings.TrimSuffix(j.file, filepath.Ext(j.file))
		if j.tunable && *autotune {
			args = append(append([]string(nil), args...), "-autotune")
		}
		if j.observable {
			if *metrics {
				args = append(append([]string(nil), args...), "-metrics")
			}
			if *traceDir != "" {
				args = append(append([]string(nil), args...),
					"-trace", filepath.Join(*traceDir, name+".trace.json"))
			}
		}
		// Every driver accepts -errtrack (precisions writes the
		// theoretical-bounds-only report), so no observable gate here.
		if *errtrackDir != "" {
			args = append(append([]string(nil), args...),
				"-errtrack", filepath.Join(*errtrackDir, name+".errtrack.json"))
		}
		start := time.Now()
		fmt.Fprintf(stdout, "sweep: %-12s ... ", j.file)
		cmd := exec.Command("go", args...)
		outBytes, err := cmd.CombinedOutput()
		if err != nil {
			fmt.Fprintf(stdout, "FAILED\n%s", outBytes)
			return fmt.Errorf("%s: %w", j.file, err)
		}
		path := filepath.Join(*out, j.file)
		if err := os.WriteFile(path, outBytes, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "done in %.1fs → %s\n", time.Since(start).Seconds(), path)
	}
	return nil
}

func main() { driver.Main("sweep", run) }
