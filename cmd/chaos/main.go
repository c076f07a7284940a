// Command chaos is the fault-injection harness: it sweeps randomized
// fault plans (drop storms, corruption, duplicate floods, degraded
// NICs, rank crashes — see netsim.RandomPlan) across every exchange
// algorithm and asserts the robustness contract: each run either
//
//   - completes with bit-identical data (transport retries and the
//     self-healing verdict/repair round absorbed the faults), possibly
//     reporting an explicit degradation (repairs, per-peer fallback), or
//   - fails with an explicit, attributed diagnostic (*mpi.FaultError or
//     a netsim deadlock/crash report).
//
// Silent corruption, a panic that is not a typed fault, or a wall-clock
// hang fail the sweep. Every plan is seeded, so any failure reproduces
// with `go run ./cmd/chaos -start <seed> -seeds 1 -v`.
//
// The recover-osc and recover-comp workloads additionally run under the
// crash-recovery runtime (docs/ROBUSTNESS.md): per-epoch checkpoints,
// rollback/respawn on crash verdicts, double-fault and restart-budget
// stratification per seed. `make chaos-recovery` drives them.
//
// Usage:
//
//	go run ./cmd/chaos [-seeds 60] [-start 1] [-workloads linear,pairwise,osc,osc-comp,osc-comp16] [-timeout 60s] [-v]
package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// msgBytes / msgVals size one pair's payload. Large enough to cross the
// silent-corruption floor (with headers), small enough to sweep many
// seeds quickly.
const (
	msgBytes = 128
	msgVals  = 32
)

// outcome classifies one (seed, workload) run.
type outcome int

const (
	outClean     outcome = iota // completed, bit-identical, no degradation
	outDegraded                 // completed, bit-identical, repairs/fallback reported
	outRecovered                // completed bit-identically after rollback/respawn
	outError                    // explicit typed fault diagnostic
	outBad                      // corrupt data, stray panic, or hang: contract violated
)

func (o outcome) String() string {
	return [...]string{"clean", "degraded", "recovered", "error", "BAD"}[o]
}

// report is the thread-safe result sink a workload body writes into.
type report struct {
	mu       sync.Mutex
	mismatch []string
	repairs  int64
	fallback int
}

func (r *report) bad(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.mismatch) < 8 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	}
}

func (r *report) degraded(d exchange.Degradation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repairs += d.Repairs
	r.fallback += len(d.Fallback)
}

// pbyte is the deterministic byte pattern for pair (src, dst).
func pbyte(src, dst, i int) byte { return byte(src*7 + dst*13 + i) }

// pval is the deterministic value pattern for pair (src, dst): small
// integers, exactly representable in every compression method swept, so
// a healthy lossy delivery is still bit-identical to the reference.
func pval(src, dst, i int) float64 { return float64((src*31 + dst*17 + i*5) % 256) }

// emitExchange stamps one completed exchange, with its virtual
// duration, on the event stream. A no-op (one pointer test) when
// telemetry is off.
func emitExchange(c *mpi.Comm, label string, t0 float64) {
	c.Obs().Emit(obs.Event{
		T: c.Now(), Kind: obs.EventExchange, Label: label, Peer: -1,
		Value: c.Now() - t0,
	})
}

// ledger is the healing state of a one-sided exchange: what an epoch
// checkpoint carries, and what a finished run reports as degradation.
type ledger interface {
	LedgerState() []byte
	RestoreLedger([]byte) error
	Health() exchange.Degradation
}

// algorithm sets one exchange algorithm up on a communicator: step runs
// one exchange, stamped label, and checks the delivery; led is nil for
// the stateless two-sided algorithms.
type algorithm func(c *mpi.Comm, rep *report, label string) (step func(), led ledger)

// step returns one exchange over exch: send n elements of pattern pat to
// every peer, stamp the exchange on the event stream, check the delivery.
func step[T comparable](c *mpi.Comm, rep *report, label string, n int, pat func(src, dst, i int) T, exch func([][]T) [][]T) func() {
	return func() {
		me := c.Rank()
		send := make([][]T, c.Size())
		for d := range send {
			send[d] = make([]T, n)
			for i := range send[d] {
				send[d][i] = pat(me, d, i)
			}
		}
		t0 := c.Now()
		got := exch(send)
		emitExchange(c, label, t0)
		for s := range got {
			for i, v := range got[s] {
				if v != pat(s, me, i) {
					rep.bad("rank %d from %d element %d corrupt (%v != %v)", me, s, i, v, pat(s, me, i))
					break
				}
			}
		}
	}
}

func linear(c *mpi.Comm, rep *report, label string) (func(), ledger) {
	return step(c, rep, label, msgBytes, pbyte, func(send [][]byte) [][]byte { return c.AlltoallvSparse(send, nil, nil) }), nil
}

func pairwise(c *mpi.Comm, rep *report, label string) (func(), ledger) {
	return step(c, rep, label, msgBytes, pbyte, func(send [][]byte) [][]byte { return exchange.PairwiseAlltoallv(c, send, nil) }), nil
}

func osc(c *mpi.Comm, rep *report, label string) (func(), ledger) {
	o := exchange.NewOSC(c, exchange.Uniform(msgBytes), true)
	return step(c, rep, label, msgBytes, pbyte, o.Exchange), o
}

func compressed(m compress.Method) algorithm {
	return func(c *mpi.Comm, rep *report, label string) (func(), ledger) {
		x := exchange.NewCompressedOSC(c, m, gpu.NewStream(gpu.V100(), c), 3, exchange.UniformCount(msgVals))
		x.SetLabel(label)
		return step(c, rep, label, msgVals, pval, x.Exchange), x
	}
}

// workload is one -workloads cell: an exchange algorithm and the runner
// it goes through. The recover-* cells run the same exchange contracts
// under recov.Controller with per-epoch checkpoints, so crash seeds
// exercise rollback/respawn (including crash-during-checkpoint,
// double-fault, and budget-exhaustion paths). They are kept out of the
// default -workloads list and driven by `make chaos-recovery`.
type workload struct {
	name string
	algo algorithm
	run  func(cell, workload) (outcome, string)
}

var workloads = []workload{
	{"linear", linear, cell.runOne},
	{"pairwise", pairwise, cell.runOne},
	{"osc", osc, cell.runOne},
	{"osc-comp", compressed(compress.Lossless{}), cell.runOne},
	{"osc-comp16", compressed(compress.Cast16{}), cell.runOne},
	{"recover-osc", osc, cell.runRecoverOne},
	{"recover-comp", compressed(compress.Lossless{}), cell.runRecoverOne},
}

// plain is the body of a fault-sweep cell: two iterations, so window
// reuse and fallback escalation both run.
func (w workload) plain(c *mpi.Comm, rep *report) {
	step, led := w.algo(c, rep, w.name)
	step()
	step()
	if led != nil {
		rep.degraded(led.Health())
	}
}

// epochs is the body of a recovery cell: four checkpointed epochs.
func (w workload) epochs(c *mpi.Comm, rk *recov.Rank, rep *report) {
	step, led := w.algo(c, rep, w.name)
	recoveryEpochs(c, rk, 4, led, step)
	rep.degraded(led.Health())
}

// recoveryEpochs drives iters exchange epochs under the checkpoint
// protocol: epochs covered by the committed cut are skipped (the resume
// epoch restores the healing ledger instead of re-running), the rest
// execute and checkpoint.
func recoveryEpochs(c *mpi.Comm, rk *recov.Rank, iters int, led ledger, run func()) {
	for epoch := 1; epoch <= iters; epoch++ {
		if resume := rk.Resume(); epoch <= resume {
			if epoch == resume {
				snap, err := rk.Restore()
				if err != nil {
					panic(fmt.Sprintf("chaos: rank %d cannot restore epoch %d: %v", c.Rank(), epoch, err))
				}
				if err := led.RestoreLedger(snap); err != nil {
					panic(fmt.Sprintf("chaos: rank %d epoch %d: %v", c.Rank(), epoch, err))
				}
			}
			continue
		}
		run()
		rk.Checkpoint(epoch, led.LedgerState())
	}
}

// explicit reports whether err is an attributed fault diagnostic rather
// than a stray panic: every collected failure is a typed *mpi.FaultError
// (or the run ended in a deadlock report).
func explicit(err error) bool {
	var re *netsim.RunError
	if !errors.As(err, &re) {
		return false
	}
	if re.Deadlock != nil && len(re.Failures) == 0 {
		return true
	}
	for _, f := range re.Failures {
		if _, ok := f.Value.(*mpi.FaultError); !ok {
			return false
		}
	}
	return len(re.Failures) > 0
}

// cell is the per-cell configuration the runners share.
type cell struct {
	seed    int64
	timeout time.Duration
	verbose bool
	rec     *obs.Recorder
}

// machine is the cell's one-node simulated machine under its seeded
// fault plan. RandomPlan times crashes for benchmark-scale runs; they
// are rescaled (deterministically) into this harness's microsecond-scale
// workloads so crash plans actually kill a rank mid-exchange.
func (cl cell) machine() netsim.Config {
	cfg := netsim.Summit(1)
	cfg.Faults = netsim.RandomPlan(cl.seed)
	if cfg.Faults.CrashAt > 0 {
		cfg.Faults.CrashAt = 0.5e-6 * float64(1+cl.seed%40)
	}
	return cfg
}

// result is what one guarded run hands to the classifier; bad is a
// violation the harness found itself (hang, stray panic, engine mismatch).
type result struct {
	out recov.Outcome
	rep *report
	err error
	bad string
}

// guarded runs fn under the wall-clock hang guard; fn's result travels
// through the channel, so a hung fn shares nothing with the caller.
func (cl cell) guarded(fn func() result) result {
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- result{bad: fmt.Sprintf("unattributed failure: harness panic: %v", r)}
			}
		}()
		ch <- fn()
	}()
	select {
	case r := <-ch:
		return r
	case <-time.After(cl.timeout):
		return result{bad: fmt.Sprintf("wall-clock hang (> %v)", cl.timeout)}
	}
}

// classify maps a finished run onto the robustness contract: bit-
// identical completion (clean, degraded or recovered) or an explicit
// typed diagnostic; anything else is a violation.
func (cl cell) classify(r result) (outcome, string) {
	var ue *recov.UnrecoverableError
	switch {
	case r.bad != "":
		return outBad, r.bad
	case r.err == nil && len(r.rep.mismatch) > 0:
		return outBad, "silent corruption: " + strings.Join(r.rep.mismatch, "; ")
	case r.err == nil && len(r.out.Recoveries) > 0:
		return outRecovered, fmt.Sprintf("%d rollback(s), MTTR %.3gs, %d repairs, %d fallback links",
			len(r.out.Recoveries), r.out.MTTRSeconds, r.rep.repairs, r.rep.fallback)
	case r.err == nil && (r.rep.repairs > 0 || r.rep.fallback > 0):
		return outDegraded, fmt.Sprintf("%d repairs, %d fallback links", r.rep.repairs, r.rep.fallback)
	case r.err == nil:
		return outClean, ""
	case errors.As(r.err, &ue), explicit(r.err):
		if cl.verbose {
			return outError, r.err.Error()
		}
		return outError, firstLine(r.err.Error())
	default:
		return outBad, "unattributed failure: " + r.err.Error()
	}
}

// runOne executes one plain (seed, workload) cell.
func (cl cell) runOne(w workload) (outcome, string) {
	cfg := cl.machine()
	return cl.classify(cl.guarded(func() result {
		rep := &report{}
		_, err := mpi.RunWithChecked(cfg, cl.rec, func(c *mpi.Comm) { w.plain(c, rep) })
		return result{rep: rep, err: err}
	}))
}

// runRecoverOne executes one recovery cell under the crash-recovery
// controller. Crash seeds are stratified deterministically: seeds ≡ 0
// (mod 3) disable the restart budget (the typed-unrecoverable path),
// seeds ≡ 1 arm a second crash inside the first recovery window (the
// double-fault path, aimed with a silent probe run — the probe's
// timeline is identical to the real run up to the second crash), and
// the rest recover normally. The contract extends the sweep's: a crash
// either recovers bit-identically or yields a typed diagnosis.
func (cl cell) runRecoverOne(w workload) (outcome, string) {
	cfg := cl.machine()
	pol := recov.Policy{Seed: cl.seed}
	doubleFault := false
	if cfg.Faults.CrashAt > 0 {
		switch cl.seed % 3 {
		case 0:
			pol.MaxRestarts = -1
		case 1:
			doubleFault = true
		}
	}
	return cl.classify(cl.guarded(func() result {
		if doubleFault {
			// Probe with the first crash alone (no recorder: its events and
			// counters would double-count) to learn where attempt 2 runs in
			// virtual time, then aim the second crash at its middle.
			ct := &recov.Controller{Policy: pol}
			pout, perr := ct.Run(cfg, nil, func(c *mpi.Comm, rk *recov.Rank) { w.epochs(c, rk, &report{}) })
			if perr == nil && len(pout.Recoveries) > 0 {
				second := (pout.Recoveries[0].ResumeT + pout.Result.Time) / 2
				cfg.Faults.CrashSchedule = []netsim.CrashSpec{{Rank: int((cl.seed + 2) % 6), At: second}}
			}
		}
		rep := &report{}
		ct := &recov.Controller{Policy: pol}
		out, err := ct.Run(cfg, cl.rec, func(c *mpi.Comm, rk *recov.Rank) { w.epochs(c, rk, rep) })
		return result{out: out, rep: rep, err: err}
	}))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("chaos", stdout, stderr, driver.Telemetry)
	seeds := s.Flags.Int("seeds", 60, "number of fault plans to sweep")
	start := s.Flags.Int64("start", 1, "first seed (plans are deterministic per seed)")
	workloadsFlag := s.Flags.String("workloads", "linear,pairwise,osc,osc-comp,osc-comp16", "exchange workloads to sweep (also: recover-osc,recover-comp — crash-recovery cells)")
	timeout := s.Flags.Duration("timeout", 60*time.Second, "wall-clock hang guard per run")
	verbose := s.Flags.Bool("v", false, "print every cell, not just summaries and violations")
	if err := s.Parse(args); err != nil {
		return err
	}
	picked, err := driver.Pick("workloads", "workload", *workloadsFlag, workloads, func(w workload) string { return w.name })
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	cl := cell{timeout: *timeout, verbose: *verbose}
	if s.Events != nil {
		// One recorder for the whole soak: counters accumulate across
		// cells, and every cell's events land in the same stream.
		cl.rec = obs.New(obs.Options{Metrics: true})
		cl.rec.SetEventLog(s.Events)
	}

	counts := map[string]map[outcome]int{}
	scenarios := map[string]int{}
	bad := 0
	for i := int64(0); i < int64(*seeds); i++ {
		cl.seed = *start + i
		scenario := netsim.RandomPlan(cl.seed).Scenario()
		scenarios[scenario]++
		for _, w := range picked {
			s.Events.StartRun(fmt.Sprintf("seed%d/%s", cl.seed, w.name))
			out, detail := w.run(cl, w)
			if counts[w.name] == nil {
				counts[w.name] = map[outcome]int{}
			}
			counts[w.name][out]++
			if out == outBad {
				bad++
				fmt.Fprintf(stdout, "BAD  seed=%-4d %-10s %-12s %s\n", cl.seed, w.name, scenario, detail)
			} else if *verbose {
				fmt.Fprintf(stdout, "%-4s seed=%-4d %-10s %-12s %s\n", out, cl.seed, w.name, scenario, detail)
			}
		}
	}

	fmt.Fprintf(stdout, "# chaos sweep: %d seeds x %d workloads (seeds %d..%d)\n",
		*seeds, len(picked), *start, *start+int64(*seeds)-1)
	var kinds []string
	for k := range scenarios {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(stdout, "# scenarios:")
	for _, k := range kinds {
		fmt.Fprintf(stdout, " %s=%d", k, scenarios[k])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-12s %8s %10s %10s %8s %6s\n", "workload", "clean", "degraded", "recovered", "error", "bad")
	for _, w := range picked {
		c := counts[w.name]
		fmt.Fprintf(stdout, "%-12s %8d %10d %10d %8d %6d\n", w.name, c[outClean], c[outDegraded], c[outRecovered], c[outError], c[outBad])
	}
	if err := s.Finish(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d contract violations", bad)
	}
	fmt.Fprintln(stdout, "chaos: all runs completed bit-identically or failed with an explicit diagnostic")
	return nil
}

func main() { driver.Main("chaos", run) }
