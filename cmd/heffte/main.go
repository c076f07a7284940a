// Command heffte is the general driver of the distributed approximate
// 3-D FFT: it runs one forward (and optionally inverse) transform on the
// simulated machine with a chosen backend/compression and reports time,
// Gflop/s, accuracy, and traffic.
//
// Usage:
//
//	go run ./cmd/heffte [-n 64] [-gpus 24] [-backend osc+compression]
//	                    [-method fp32|fp16|bf16|trim:M|block:B|lossless|none]
//	                    [-etol 1e-6] [-sim 1] [-iters 2]
package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
)

func parseMethod(s string) (compress.Method, error) {
	switch {
	case s == "" || s == "none":
		return compress.None{}, nil
	case s == "fp32":
		return compress.Cast32{}, nil
	case s == "fp16":
		return compress.Cast16{}, nil
	case s == "sfp16":
		return compress.Scaled{Inner: compress.Cast16{}}, nil
	case s == "bf16":
		return compress.CastBF16{}, nil
	case s == "lossless":
		return compress.Lossless{}, nil
	case strings.HasPrefix(s, "trim:"):
		m, err := strconv.Atoi(s[len("trim:"):])
		if err != nil || m < 0 || m > 52 {
			return nil, driver.Usagef("bad trim width %q in -method (0..52)", s)
		}
		return compress.Trim{M: uint(m)}, nil
	case strings.HasPrefix(s, "block:"):
		b, err := strconv.Atoi(s[len("block:"):])
		if err != nil || b < 1 || b > 30 {
			return nil, driver.Usagef("bad block budget %q in -method (1..30)", s)
		}
		return compress.Block{Bits: uint(b)}, nil
	}
	return nil, driver.Usagef("unknown method %q in -method (valid: none, fp32, fp16, sfp16, bf16, lossless, trim:M, block:B)", s)
}

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("heffte", stdout, stderr, driver.Observe)
	nFlag := s.Flags.Int("n", 64, "cubic problem size per dimension")
	s.Flags.Int("gpus", 24, "GPU count (multiple of 6)")
	names := make([]string, len(core.Backends))
	for i, row := range core.Backends {
		names[i] = row.Name
	}
	backend := s.Flags.String("backend", "osc+compression", strings.Join(names, " | "))
	methodFlag := s.Flags.String("method", "fp32", "compression method (compressed backends)")
	etol := s.Flags.Float64("etol", 0, "error tolerance e_tol (overrides -method when > 0)")
	simFlag := s.Flags.Int("sim", 0, "simulated problem size per dimension (0 = same as -n)")
	iters := s.Flags.Int("iters", 2, "measured iterations")
	fp32 := s.Flags.Bool("fp32", false, "run the full FP32 pipeline instead of FP64")
	s.Help("trace", "write a Chrome-trace JSON of the run to this file")
	s.Help("metrics", "print the phase-breakdown/metrics report")
	if err := s.Parse(args); err != nil {
		return err
	}
	i := slices.Index(names, *backend)
	if i < 0 {
		return driver.Usagef("unknown backend %q in -backend (valid: %s)", *backend, strings.Join(names, ", "))
	}
	row := core.Backends[i]
	opts := core.Options{Backend: row.Backend}
	if row.Compressed {
		if *fp32 {
			return driver.Usagef("the compressed backend requires the FP64 pipeline")
		}
		if *etol > 0 {
			opts.Tolerance = *etol
		} else {
			m, err := parseMethod(*methodFlag)
			if err != nil {
				return err
			}
			opts.Method = m
		}
	}
	if *simFlag > 0 {
		if *simFlag%*nFlag != 0 {
			return driver.Usagef("-sim must be a multiple of -n")
		}
		opts.SimScale = *simFlag / *nFlag
	}
	if err := s.Start(); err != nil {
		return err
	}

	n := [3]int{*nFlag, *nFlag, *nFlag}
	gpus := s.GPUs[0]
	cfg := s.Machine(gpus)
	rec := s.Recorder(fmt.Sprintf("%s/%dgpus", *backend, gpus), "")
	var r core.Result
	if *fp32 {
		r = core.MeasureWith[complex64](rec, cfg, n, opts, *iters, true)
	} else {
		r = core.MeasureWith[complex128](rec, cfg, n, opts, *iters, true)
	}

	simN := *nFlag
	if opts.SimScale > 1 {
		simN = *nFlag * opts.SimScale
	}
	fmt.Fprintf(stdout, "problem        : %d^3 (timed as %d^3)\n", *nFlag, simN)
	fmt.Fprintf(stdout, "GPUs           : %d (%d nodes)\n", gpus, gpus/6)
	fmt.Fprintf(stdout, "backend        : %s\n", *backend)
	if row.Compressed {
		m := opts.Method
		if m == nil {
			m = compress.FromTolerance(opts.Tolerance)
		}
		fmt.Fprintf(stdout, "compression    : %s (nominal rate %.2fx)\n", m.Name(), m.Ratio())
		// The achieved rate comes from the run's metrics: raw vs wire
		// bytes per labelled reshape (fwd0..3 in ring order).
		if stats := rec.Metrics().CompressionStats(); len(stats) > 0 {
			var raw, wire int64
			fmt.Fprintf(stdout, "achieved rate  :")
			for _, st := range stats {
				fmt.Fprintf(stdout, " %s %.2fx", st.Label, st.Ratio())
				raw += st.RawBytes
				wire += st.WireBytes
			}
			if wire > 0 {
				fmt.Fprintf(stdout, " | overall %.2fx", float64(raw)/float64(wire))
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "forward time   : %.3f ms\n", r.ForwardTime*1e3)
	fmt.Fprintf(stdout, "performance    : %.1f Gflop/s\n", r.Gflops)
	fmt.Fprintf(stdout, "relative error : %.3e\n", r.RelErr)
	fmt.Fprintf(stdout, "traffic        : %d msgs, %.1f MB inter-node, %.1f MB intra-node\n",
		r.Stats.Messages, float64(r.Stats.BytesInter)/1e6, float64(r.Stats.BytesIntra)/1e6)
	fmt.Fprintf(stdout, "one-sided      : %d puts (%.1f MB), %d fences, %d flushes\n",
		r.Stats.Puts, float64(r.Stats.BytesPut)/1e6, r.Stats.Fences, r.Stats.Flushes)
	pr := r.Profile
	if pr.Total() > 0 {
		fmt.Fprintf(stdout, "phase breakdown: exchange %.0f%%, fft %.0f%%, pack %.0f%%, unpack %.0f%%\n",
			100*pr.Exchange/pr.Total(), 100*pr.FFT/pr.Total(),
			100*pr.Pack/pr.Total(), 100*pr.Unpack/pr.Total())
	}
	return s.Finish()
}

func main() { driver.Main("heffte", run) }
