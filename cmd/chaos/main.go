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
// The kill-osc and kill-comp workloads are the kill-permanent stratum:
// a seeded permanent rank kill exhausts the respawn budget, and the run
// must either shrink onto the survivors (Policy.Shrink, two thirds of
// the seeds) and finish bit-identically on BOTH simulator engines, or
// give up with the typed *recov.UnrecoverableError (the remaining
// seeds, Shrink off). Each kill cell runs the sequential and parallel
// engines itself and cross-checks their outcomes, so `-parallel` is
// redundant for them.
//
// Usage:
//
//	go run ./cmd/chaos [-seeds 60] [-start 1] [-workloads linear,pairwise,osc,osc-comp,osc-comp16] [-timeout 60s] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
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
	outShrunk                   // completed bit-identically on fewer ranks after an elastic shrink
	outError                    // explicit typed fault diagnostic
	outBad                      // corrupt data, stray panic, or hang: contract violated
)

func (o outcome) String() string {
	return [...]string{"clean", "degraded", "recovered", "shrunk", "error", "BAD"}[o]
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

func checkBytes(rep *report, me int, got [][]byte) {
	for s := range got {
		for i, b := range got[s] {
			if b != pbyte(s, me, i) {
				rep.bad("rank %d from %d byte %d corrupt", me, s, i)
				break
			}
		}
	}
}

func checkVals(rep *report, me int, got [][]float64) {
	for s := range got {
		for i, v := range got[s] {
			if v != pval(s, me, i) {
				rep.bad("rank %d from %d value %d corrupt (%g != %g)", me, s, i, v, pval(s, me, i))
				break
			}
		}
	}
}

func sendBytes(me, p int) [][]byte {
	out := make([][]byte, p)
	for d := 0; d < p; d++ {
		out[d] = make([]byte, msgBytes)
		for i := range out[d] {
			out[d][i] = pbyte(me, d, i)
		}
	}
	return out
}

func sendVals(me, p int) [][]float64 {
	out := make([][]float64, p)
	for d := 0; d < p; d++ {
		out[d] = make([]float64, msgVals)
		for i := range out[d] {
			out[d][i] = pval(me, d, i)
		}
	}
	return out
}

// emitExchange stamps one completed exchange on the live event stream —
// the latency observations the SLO engine's "latency" objectives
// consume. A no-op (one pointer test) when telemetry is off.
func emitExchange(c *mpi.Comm, label string, t0 float64) {
	c.Obs().Emit(obs.Event{
		T: c.Now(), Kind: obs.EventExchange, Label: label, Peer: -1,
		Value: c.Now() - t0,
	})
}

// workloads maps a name to a body exercising one exchange algorithm
// (two iterations, so window reuse and fallback escalation both run).
var workloads = map[string]func(c *mpi.Comm, rep *report){
	"linear": func(c *mpi.Comm, rep *report) {
		for it := 0; it < 2; it++ {
			t0 := c.Now()
			got := c.Alltoallv(sendBytes(c.Rank(), c.Size()))
			emitExchange(c, "linear", t0)
			checkBytes(rep, c.Rank(), got)
		}
	},
	"pairwise": func(c *mpi.Comm, rep *report) {
		for it := 0; it < 2; it++ {
			t0 := c.Now()
			got := exchange.PairwiseAlltoallv(c, sendBytes(c.Rank(), c.Size()))
			emitExchange(c, "pairwise", t0)
			checkBytes(rep, c.Rank(), got)
		}
	},
	"osc": func(c *mpi.Comm, rep *report) {
		o := exchange.NewOSC(c, exchange.Uniform(msgBytes), true)
		for it := 0; it < 2; it++ {
			t0 := c.Now()
			got := o.Exchange(sendBytes(c.Rank(), c.Size()))
			emitExchange(c, "osc", t0)
			checkBytes(rep, c.Rank(), got)
		}
		rep.degraded(o.Health())
	},
	"osc-comp": func(c *mpi.Comm, rep *report) {
		x := exchange.NewCompressedOSC(c, compress.Lossless{}, gpu.NewStream(gpu.V100(), c), 3, exchange.UniformCount(msgVals))
		x.SetLabel("osc-comp")
		for it := 0; it < 2; it++ {
			t0 := c.Now()
			got := x.Exchange(sendVals(c.Rank(), c.Size()))
			emitExchange(c, "osc-comp", t0)
			checkVals(rep, c.Rank(), got)
		}
		rep.degraded(x.Health())
	},
	"osc-comp16": func(c *mpi.Comm, rep *report) {
		x := exchange.NewCompressedOSC(c, compress.Cast16{}, gpu.NewStream(gpu.V100(), c), 3, exchange.UniformCount(msgVals))
		x.SetLabel("osc-comp16")
		for it := 0; it < 2; it++ {
			t0 := c.Now()
			got := x.Exchange(sendVals(c.Rank(), c.Size()))
			emitExchange(c, "osc-comp16", t0)
			checkVals(rep, c.Rank(), got)
		}
		rep.degraded(x.Health())
	},
}

// recoveryLedger is the exchange state an epoch checkpoint carries
// (the healing ledger of internal/exchange's one-sided algorithms).
type recoveryLedger interface {
	LedgerState() []byte
	RestoreLedger([]byte) error
}

// recoveryEpochs drives iters exchange epochs under the checkpoint
// protocol: epochs covered by the committed cut are skipped (the resume
// epoch restores the healing ledger instead of re-running), the rest
// execute and checkpoint.
func recoveryEpochs(c *mpi.Comm, rk *recov.Rank, iters int, led recoveryLedger, run func()) {
	for epoch := 1; epoch <= iters; epoch++ {
		if resume := rk.Resume(); epoch <= resume {
			if epoch == resume {
				var snap []byte
				var err error
				if rk.Migrating() {
					// The committed snapshot belongs to the pre-shrink
					// membership: fetch this rank's old ledger and remap its
					// per-peer records onto the survivors.
					snap, err = rk.RestorePeer(rk.PrevRank())
					if err == nil {
						snap, err = exchange.RemapLedgerState(snap, rk.OldToNew(), c.Size())
					}
				} else {
					snap, err = rk.Restore()
				}
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

// recoveryWorkloads are the crash-recovery sweep cells: the same
// exchange contracts, run under recov.Controller with per-epoch
// checkpoints, so crash seeds exercise rollback/respawn (including
// crash-during-checkpoint, double-fault, and budget-exhaustion paths).
// They are kept out of the default -workloads list and driven by
// `make chaos-recovery`.
var recoveryWorkloads = map[string]func(c *mpi.Comm, rk *recov.Rank, rep *report){
	"recover-osc": func(c *mpi.Comm, rk *recov.Rank, rep *report) {
		o := exchange.NewOSC(c, exchange.Uniform(msgBytes), true)
		recoveryEpochs(c, rk, 4, o, func() {
			t0 := c.Now()
			got := o.Exchange(sendBytes(c.Rank(), c.Size()))
			emitExchange(c, "recover-osc", t0)
			checkBytes(rep, c.Rank(), got)
		})
		rep.degraded(o.Health())
	},
	"recover-comp": func(c *mpi.Comm, rk *recov.Rank, rep *report) {
		x := exchange.NewCompressedOSC(c, compress.Lossless{}, gpu.NewStream(gpu.V100(), c), 3, exchange.UniformCount(msgVals))
		x.SetLabel("recover-comp")
		recoveryEpochs(c, rk, 4, x, func() {
			t0 := c.Now()
			got := x.Exchange(sendVals(c.Rank(), c.Size()))
			emitExchange(c, "recover-comp", t0)
			checkVals(rep, c.Rank(), got)
		})
		rep.degraded(x.Health())
	},
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

// runOne executes one (seed, workload) cell under a wall-clock hang
// guard and classifies the outcome.
func runOne(seed int64, name string, body func(*mpi.Comm, *report), timeout time.Duration, verbose, parallel bool, rec *obs.Recorder) (outcome, string) {
	cfg := netsim.Summit(1)
	cfg.Parallel = parallel
	cfg.Faults = netsim.RandomPlan(seed)
	if cfg.Faults.CrashAt > 0 {
		// RandomPlan times crashes for benchmark-scale runs; rescale into
		// this harness's microsecond-scale workloads (deterministically)
		// so crash plans actually kill a rank mid-exchange.
		cfg.Faults.CrashAt = 0.5e-6 * float64(1+seed%40)
	}
	rep := &report{}
	type res struct{ err error }
	ch := make(chan res, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- res{fmt.Errorf("harness panic: %v", r)}
			}
		}()
		_, err := mpi.RunWithChecked(cfg, rec, func(c *mpi.Comm) { body(c, rep) })
		ch <- res{err}
	}()
	var err error
	select {
	case r := <-ch:
		err = r.err
	case <-time.After(timeout):
		return outBad, fmt.Sprintf("wall-clock hang (> %v)", timeout)
	}
	switch {
	case err == nil && len(rep.mismatch) > 0:
		return outBad, "silent corruption: " + strings.Join(rep.mismatch, "; ")
	case err == nil && (rep.repairs > 0 || rep.fallback > 0):
		return outDegraded, fmt.Sprintf("%d repairs, %d fallback links", rep.repairs, rep.fallback)
	case err == nil:
		return outClean, ""
	case explicit(err):
		if verbose {
			return outError, err.Error()
		}
		return outError, firstLine(err.Error())
	default:
		return outBad, "unattributed failure: " + err.Error()
	}
}

// runRecoverOne executes one recovery cell under the crash-recovery
// controller. Crash seeds are stratified deterministically: seeds ≡ 0
// (mod 3) disable the restart budget (the typed-unrecoverable path),
// seeds ≡ 1 arm a second crash inside the first recovery window (the
// double-fault path, aimed with a silent probe run — the probe's
// timeline is identical to the real run up to the second crash), and
// the rest recover normally. The contract extends the sweep's: a crash
// either recovers bit-identically or yields a typed diagnosis.
func runRecoverOne(seed int64, name string, body func(*mpi.Comm, *recov.Rank, *report), timeout time.Duration, verbose, parallel bool, rec *obs.Recorder) (outcome, string) {
	cfg := netsim.Summit(1)
	cfg.Parallel = parallel
	cfg.Faults = netsim.RandomPlan(seed)
	pol := recov.Policy{Seed: seed}
	doubleFault := false
	if cfg.Faults.CrashAt > 0 {
		// Rescale benchmark-scale crash times into this harness's
		// microsecond-scale workloads, as runOne does.
		cfg.Faults.CrashAt = 0.5e-6 * float64(1+seed%40)
		switch seed % 3 {
		case 0:
			pol.MaxRestarts = -1
		case 1:
			doubleFault = true
		}
	}
	rep := &report{}
	type res struct {
		out recov.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- res{err: fmt.Errorf("harness panic: %v", r)}
			}
		}()
		if doubleFault {
			// Probe with the first crash alone (no recorder: its events and
			// counters would double-count) to learn where attempt 2 runs in
			// virtual time, then aim the second crash at its middle.
			ct := &recov.Controller{Policy: pol}
			pout, perr := ct.Run(cfg, nil, func(c *mpi.Comm, rk *recov.Rank) { body(c, rk, &report{}) })
			if perr == nil && len(pout.Recoveries) > 0 {
				second := (pout.Recoveries[0].ResumeT + pout.Result.Time) / 2
				cfg.Faults.CrashSchedule = []netsim.CrashSpec{{Rank: int((seed + 2) % 6), At: second}}
			}
		}
		ct := &recov.Controller{Policy: pol}
		out, err := ct.Run(cfg, rec, func(c *mpi.Comm, rk *recov.Rank) { body(c, rk, rep) })
		ch <- res{out, err}
	}()
	var r res
	select {
	case r = <-ch:
	case <-time.After(timeout):
		return outBad, fmt.Sprintf("wall-clock hang (> %v)", timeout)
	}
	var ue *recov.UnrecoverableError
	switch {
	case r.err == nil && len(rep.mismatch) > 0:
		return outBad, "silent corruption: " + strings.Join(rep.mismatch, "; ")
	case r.err == nil && len(r.out.Recoveries) > 0:
		return outRecovered, fmt.Sprintf("%d rollback(s), MTTR %.3gs, %d repairs, %d fallback links",
			len(r.out.Recoveries), r.out.MTTRSeconds, rep.repairs, rep.fallback)
	case r.err == nil && (rep.repairs > 0 || rep.fallback > 0):
		return outDegraded, fmt.Sprintf("%d repairs, %d fallback links", rep.repairs, rep.fallback)
	case r.err == nil:
		return outClean, ""
	case errors.As(r.err, &ue), explicit(r.err):
		if verbose {
			return outError, r.err.Error()
		}
		return outError, firstLine(r.err.Error())
	default:
		return outBad, "unattributed failure: " + r.err.Error()
	}
}

// shrinkWorkloads are the kill-permanent stratum's cells; the bodies
// are the recovery workloads' own (recoveryEpochs already migrates the
// healing ledger across a membership change).
var shrinkWorkloads = map[string]func(c *mpi.Comm, rk *recov.Rank, rep *report){
	"kill-osc":  recoveryWorkloads["recover-osc"],
	"kill-comp": recoveryWorkloads["recover-comp"],
}

// runShrinkOne executes one kill-permanent cell: a seeded plan kills a
// rank for good (every respawn dies again), so the respawn budget burns
// out. Seeds ≡ 0 (mod 3) run with Shrink off and must surface the typed
// *recov.UnrecoverableError; the rest shrink onto the survivors and
// must finish bit-identically. Every cell runs on BOTH engines and
// cross-checks the outcomes (times, shrink records, survivors), so the
// determinism contract is asserted per seed rather than per sweep.
func runShrinkOne(seed int64, name string, body func(*mpi.Comm, *recov.Rank, *report), timeout time.Duration, verbose bool, rec *obs.Recorder) (outcome, string) {
	pol := recov.Policy{Seed: seed, MaxRestarts: 1, Shrink: seed%3 != 0}
	type res struct {
		out recov.Outcome
		err error
		rep *report
	}
	runEngine := func(par bool, r *obs.Recorder) res {
		cfg := netsim.Summit(1)
		cfg.Parallel = par
		// A pure permanent-kill plan, timed like runOne's crash rescale so
		// roughly half the seeds kill mid-sweep (the rest finish first and
		// classify clean — the kill never fires).
		cfg.Faults = &netsim.FaultPlan{Seed: seed, KillRank: int(seed % 6), KillAt: 0.5e-6 * float64(1+seed%40)}
		rep := &report{}
		ct := &recov.Controller{Policy: pol}
		out, err := ct.Run(cfg, r, func(c *mpi.Comm, rk *recov.Rank) { body(c, rk, rep) })
		return res{out, err, rep}
	}
	ch := make(chan [2]res, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- [2]res{{err: fmt.Errorf("harness panic: %v", r)}, {err: fmt.Errorf("harness panic: %v", r)}}
			}
		}()
		seq := runEngine(false, rec) // only one engine feeds the recorder
		par := runEngine(true, nil)
		ch <- [2]res{seq, par}
	}()
	var seq, par res
	select {
	case r := <-ch:
		seq, par = r[0], r[1]
	case <-time.After(timeout):
		return outBad, fmt.Sprintf("wall-clock hang (> %v)", timeout)
	}
	// Engine equivalence first: identical success/failure, virtual time,
	// shrink records, and final membership.
	if (seq.err == nil) != (par.err == nil) {
		return outBad, fmt.Sprintf("engines disagree: sequential err=%v, parallel err=%v", seq.err, par.err)
	}
	if seq.err == nil {
		if seq.out.Result.Time != par.out.Result.Time {
			return outBad, fmt.Sprintf("engines disagree on time: %.9g != %.9g", seq.out.Result.Time, par.out.Result.Time)
		}
		if fmt.Sprintf("%+v", seq.out.Shrinks) != fmt.Sprintf("%+v", par.out.Shrinks) ||
			fmt.Sprintf("%v", seq.out.Survivors) != fmt.Sprintf("%v", par.out.Survivors) {
			return outBad, fmt.Sprintf("engines disagree on shrink history: %+v/%v != %+v/%v",
				seq.out.Shrinks, seq.out.Survivors, par.out.Shrinks, par.out.Survivors)
		}
	}
	var ue *recov.UnrecoverableError
	switch {
	case seq.err == nil && len(seq.rep.mismatch) > 0:
		return outBad, "silent corruption: " + strings.Join(seq.rep.mismatch, "; ")
	case seq.err == nil && len(seq.out.Shrinks) > 0:
		sh := seq.out.Shrinks[len(seq.out.Shrinks)-1]
		return outShrunk, fmt.Sprintf("%d->%d ranks (lost %v), MTTR %.3gs, %d repairs",
			seq.out.Shrinks[0].FromSize, sh.ToSize, sh.Dead, seq.out.MTTRSeconds, seq.rep.repairs)
	case seq.err == nil && len(seq.out.Recoveries) > 0:
		return outRecovered, fmt.Sprintf("%d rollback(s), MTTR %.3gs", len(seq.out.Recoveries), seq.out.MTTRSeconds)
	case seq.err == nil:
		return outClean, ""
	case errors.As(seq.err, &ue):
		if pol.Shrink {
			// With Shrink armed a lone permanent kill is survivable: giving
			// up is a contract violation, not an explicit diagnostic.
			return outBad, "shrink-enabled run gave up: " + firstLine(seq.err.Error())
		}
		if verbose {
			return outError, seq.err.Error()
		}
		return outError, firstLine(seq.err.Error())
	case explicit(seq.err):
		if verbose {
			return outError, seq.err.Error()
		}
		return outError, firstLine(seq.err.Error())
	default:
		return outBad, "unattributed failure: " + seq.err.Error()
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}

func main() {
	seeds := flag.Int("seeds", 60, "number of fault plans to sweep")
	start := flag.Int64("start", 1, "first seed (plans are deterministic per seed)")
	workloadsFlag := flag.String("workloads", "linear,pairwise,osc,osc-comp,osc-comp16", "exchange workloads to sweep (also: recover-osc,recover-comp — crash-recovery cells; kill-osc,kill-comp — permanent-kill elastic-shrink cells)")
	timeout := flag.Duration("timeout", 60*time.Second, "wall-clock hang guard per run")
	verbose := flag.Bool("v", false, "print every cell, not just summaries and violations")
	parallel := flag.Bool("parallel", false, "run the simulator's parallel engine (verdicts are bit-identical; docs/DETERMINISM.md)")
	scrape := flag.String("scrape", "", "with -serve: self-scrape /metrics mid-sweep into this file")
	tf := telemetry.RegisterFlags(nil)
	flag.Parse()

	tel, err := tf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	if tel.Enabled() && tel.Addr() != "" {
		fmt.Printf("# telemetry: serving http://%s (/metrics /healthz /slo /events /debug/pprof)\n", tel.Addr())
	}
	var rec *obs.Recorder
	if tel.Enabled() {
		// One recorder for the whole soak: counters accumulate across
		// cells, and every cell's events land in the same stream.
		rec = obs.New(obs.Options{Metrics: true})
		tel.Attach(rec)
	}

	var names []string
	for _, n := range strings.Split(*workloadsFlag, ",") {
		n = strings.TrimSpace(n)
		_, plain := workloads[n]
		_, recoverable := recoveryWorkloads[n]
		_, shrinkable := shrinkWorkloads[n]
		if !plain && !recoverable && !shrinkable {
			fmt.Fprintf(os.Stderr, "chaos: unknown workload %q\n", n)
			os.Exit(2)
		}
		names = append(names, n)
	}

	counts := map[string]map[outcome]int{}
	scenarios := map[string]int{}
	bad := 0
	for s := int64(0); s < int64(*seeds); s++ {
		seed := *start + s
		scenario := netsim.RandomPlan(seed).Scenario()
		scenarios[scenario]++
		for _, name := range names {
			tel.StartRun(fmt.Sprintf("seed%d/%s", seed, name))
			var out outcome
			var detail string
			if body, ok := workloads[name]; ok {
				out, detail = runOne(seed, name, body, *timeout, *verbose, *parallel, rec)
			} else if body, ok := shrinkWorkloads[name]; ok {
				out, detail = runShrinkOne(seed, name, body, *timeout, *verbose, rec)
			} else {
				out, detail = runRecoverOne(seed, name, recoveryWorkloads[name], *timeout, *verbose, *parallel, rec)
			}
			if counts[name] == nil {
				counts[name] = map[outcome]int{}
			}
			counts[name][out]++
			if out == outBad {
				bad++
				fmt.Printf("BAD  seed=%-4d %-10s %-12s %s\n", seed, name, scenario, detail)
			} else if *verbose {
				fmt.Printf("%-4s seed=%-4d %-10s %-12s %s\n", out, seed, name, scenario, detail)
			}
		}
		if *scrape != "" && s == int64(*seeds/2) {
			// A mid-soak self-scrape: the exposition the acceptance check
			// and `make telemetry-demo` lint.
			if err := tel.ScrapeTo(*scrape); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: scrape: %v\n", err)
				os.Exit(2)
			}
		}
	}

	fmt.Printf("# chaos sweep: %d seeds x %d workloads (seeds %d..%d)\n",
		*seeds, len(names), *start, *start+int64(*seeds)-1)
	var kinds []string
	for k := range scenarios {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("# scenarios:")
	for _, k := range kinds {
		fmt.Printf(" %s=%d", k, scenarios[k])
	}
	fmt.Println()
	fmt.Printf("%-12s %8s %10s %10s %8s %8s %6s\n", "workload", "clean", "degraded", "recovered", "shrunk", "error", "bad")
	for _, name := range names {
		c := counts[name]
		fmt.Printf("%-12s %8d %10d %10d %8d %8d %6d\n", name, c[outClean], c[outDegraded], c[outRecovered], c[outShrunk], c[outError], c[outBad])
	}
	if tel.Enabled() {
		fmt.Println(tel.Summary())
		if err := tel.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: telemetry: %v\n", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Printf("chaos: %d contract violations\n", bad)
		os.Exit(1)
	}
	fmt.Println("chaos: all runs completed bit-identically or failed with an explicit diagnostic")
}
