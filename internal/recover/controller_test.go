package recover_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// The controller tests drive the full pipeline — checkpointing plan,
// reliable runtime, watchdog, rollback, respawn — on the 6-rank Summit
// node, crashing one rank mid-run.

var testN = [3]int{8, 8, 8}

// baselineTime measures the crash-free duration of the recoverable
// workload, used to aim crashes at the middle of the run.
func baselineTime(t *testing.T, opts core.Options) float64 {
	t.Helper()
	cfg := netsim.Summit(1)
	_, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, true, recov.Policy{})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	if out.Attempts != 1 || len(out.Recoveries) != 0 {
		t.Fatalf("baseline run recovered without faults: %+v", out)
	}
	return out.Result.Time
}

func TestControllerRecoversMidRunCrash(t *testing.T) {
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 21, CrashRank: 3, CrashAt: half}
	res, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, true, recov.Policy{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if out.Attempts != 2 || len(out.Recoveries) != 1 {
		t.Fatalf("attempts %d, recoveries %d; want 2 and 1", out.Attempts, len(out.Recoveries))
	}
	r := out.Recoveries[0]
	if r.CrashT <= 0 || r.DetectT < r.CrashT || r.ResumeT <= r.DetectT {
		t.Errorf("recovery timeline out of order: %+v", r)
	}
	if out.MTTRSeconds != r.ResumeT-r.CrashT {
		t.Errorf("MTTR %g, want %g", out.MTTRSeconds, r.ResumeT-r.CrashT)
	}
	if r.Epoch < 0 {
		t.Errorf("no committed epoch before a mid-run crash (crash at t=%.3g): %+v", half, r)
	}
	// The resumed pipeline must still compute a correct transform.
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("recovered run round-trip error %g", res.RelErr)
	}
}

func TestControllerDeterministicAcrossRuns(t *testing.T) {
	// The recovered run must be bit-identical to itself from run to run:
	// same virtual end time, same recovery timeline, same numerical
	// result.
	opts := core.Options{Backend: core.BackendCompressed, Tolerance: 1e-6}
	half := baselineTime(t, opts) / 2

	run := func() (core.Result, recov.Outcome) {
		cfg := netsim.Summit(1)
		cfg.Faults = &netsim.FaultPlan{Seed: 22, CrashRank: 1, CrashAt: half,
			DropProb: 0.01, SilentCorruptProb: 0.02}
		res, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, true, recov.Policy{})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return res, out
	}
	resA, outA := run()
	resB, outB := run()

	if outA.Result.Time != outB.Result.Time {
		t.Errorf("virtual end time diverged: %v, then %v", outA.Result.Time, outB.Result.Time)
	}
	if outA.Attempts != outB.Attempts || len(outA.Recoveries) != len(outB.Recoveries) {
		t.Fatalf("recovery shape diverged: %+v vs %+v", outA, outB)
	}
	for i := range outA.Recoveries {
		if outA.Recoveries[i] != outB.Recoveries[i] {
			t.Errorf("recovery %d diverged: %+v vs %+v", i, outA.Recoveries[i], outB.Recoveries[i])
		}
	}
	if outA.MTTRSeconds != outB.MTTRSeconds {
		t.Errorf("MTTR diverged: %v vs %v", outA.MTTRSeconds, outB.MTTRSeconds)
	}
	if resA.RelErr != resB.RelErr {
		t.Errorf("numerical result diverged: %v vs %v", resA.RelErr, resB.RelErr)
	}
	if resA.ForwardTime != resB.ForwardTime {
		t.Errorf("forward time diverged: %v vs %v", resA.ForwardTime, resB.ForwardTime)
	}
}

// doubleFault returns a machine whose plan crashes rank 2 mid-run and
// rank 4 in the middle of the first recovery attempt. A probe with the
// first crash alone learns where attempt 2 runs in virtual time; its
// timeline is identical to the double-fault run up to the second crash
// (same seed, same plan prefix).
func doubleFault(t *testing.T, opts core.Options) netsim.Config {
	t.Helper()
	half := baselineTime(t, opts) / 2
	probeCfg := netsim.Summit(1)
	probeCfg.Faults = &netsim.FaultPlan{Seed: 23, CrashRank: 2, CrashAt: half}
	_, probe, err := core.MeasureRecoverable[complex128](nil, probeCfg, testN, opts, 2, true, recov.Policy{})
	if err != nil || len(probe.Recoveries) != 1 {
		t.Fatalf("probe run: %v, %+v", err, probe)
	}
	second := (probe.Recoveries[0].ResumeT + probe.Result.Time) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 23, CrashRank: 2, CrashAt: half,
		CrashSchedule: []netsim.CrashSpec{{Rank: 4, At: second}}}
	return cfg
}

func TestControllerAbsorbsDoubleFault(t *testing.T) {
	// A second crash during recovery (scheduled past the first verdict)
	// must be caught by the same loop: two rollbacks, three attempts.
	opts := core.Options{Backend: core.BackendOSC}
	cfg := doubleFault(t, opts)
	res, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, true, recov.Policy{})
	if err != nil {
		t.Fatalf("double-fault recovery failed: %v", err)
	}
	if out.Attempts != 3 || len(out.Recoveries) != 2 {
		t.Fatalf("attempts %d, recoveries %d; want 3 and 2", out.Attempts, len(out.Recoveries))
	}
	if out.Recoveries[1].CrashT <= out.Recoveries[0].DetectT {
		t.Errorf("second crash not after first verdict: %+v", out.Recoveries)
	}
	if math.IsNaN(res.RelErr) || res.RelErr > 1e-12 {
		t.Errorf("recovered run round-trip error %g", res.RelErr)
	}
}

func TestControllerGivesUpWithTypedDiagnosis(t *testing.T) {
	// With recovery disabled every crash is immediately unrecoverable —
	// a typed diagnosis, not a hang and not a bare panic.
	opts := core.Options{Backend: core.BackendOSC}
	half := baselineTime(t, opts) / 2

	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 24, CrashRank: 5, CrashAt: half}
	_, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, false, recov.Policy{MaxRestarts: -1})
	if err == nil {
		t.Fatal("crash with recovery disabled must fail")
	}
	var ue *recov.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error is %T (%v), want *recov.UnrecoverableError", err, err)
	}
	if ue.Attempts != 1 || out.Attempts != 1 {
		t.Errorf("attempts %d/%d, want 1", ue.Attempts, out.Attempts)
	}
	if ue.Cause == nil {
		t.Error("give-up diagnosis lost its cause chain")
	}
}

func TestControllerBudgetCountsRestarts(t *testing.T) {
	// MaxRestarts bounds respawns, not attempts: a budget of one absorbs
	// the first crash of the double fault and gives up on the second.
	opts := core.Options{Backend: core.BackendOSC}
	cfg := doubleFault(t, opts)
	_, out, err := core.MeasureRecoverable[complex128](nil, cfg, testN, opts, 2, true, recov.Policy{MaxRestarts: 1})
	var ue *recov.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error is %T (%v), want *recov.UnrecoverableError", err, err)
	}
	if ue.Attempts != 2 || out.Attempts != 2 || len(ue.Recoveries) != 1 {
		t.Errorf("gave up after %d/%d attempts with %d recoveries, want 2, 2 and 1", ue.Attempts, out.Attempts, len(ue.Recoveries))
	}
}

func TestControllerRestoreIsBitIdentical(t *testing.T) {
	// A crash inside the one checked transform: the respawned attempt
	// resumes from the committed cut the store reports, skips the epochs
	// it covers, restores the committed epoch from its snapshot and
	// finishes the pipeline with a spectrum bit-identical to a fault-free
	// run's — on a lossless and on a lossy, healing backend.
	for _, opts := range []core.Options{
		{Backend: core.BackendOSC},
		{Backend: core.BackendCompressed, Tolerance: 1e-6},
	} {
		t.Run(opts.Backend.String(), func(t *testing.T) {
			// run returns every rank's spectrum, the outcome, the resume
			// epoch rank 0 saw per attempt, and when rank 0 began the
			// transform.
			run := func(cfg netsim.Config) ([][]complex128, recov.Outcome, []int, float64) {
				outs := make([][]complex128, cfg.Ranks())
				var resumes []int
				var start float64
				ct := &recov.Controller{}
				out, err := ct.Run(cfg, nil, func(c *mpi.Comm, rk *recov.Rank) {
					o := opts
					o.Recovery = rk
					pl := core.NewPlan[complex128](c, testN, o)
					in := make([]complex128, pl.InBox().Count())
					core.FillBox(in, pl.InBox(), pl.InOrder(), 1)
					if c.Rank() == 0 {
						resumes = append(resumes, rk.Resume())
						start = c.Now()
					}
					outs[c.Rank()] = append([]complex128(nil), pl.Forward(in)...)
				})
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				return outs, out, resumes, start
			}
			clean, cleanOut, _, start := run(netsim.Summit(1))
			cfg := netsim.Summit(1)
			cfg.Faults = &netsim.FaultPlan{Seed: 26, CrashRank: 3, CrashAt: (start + cleanOut.Result.Time) / 2}
			got, out, resumes, _ := run(cfg)
			if len(out.Recoveries) != 1 || len(resumes) != 2 {
				t.Fatalf("recoveries %d, attempts seen by rank 0 %d; want 1 and 2", len(out.Recoveries), len(resumes))
			}
			if e := out.Recoveries[0].Epoch; e < 1 || e >= 4 || resumes[1] != e {
				t.Fatalf("respawn resumed from epoch %d, store committed %d; want the same mid-transform epoch", resumes[1], e)
			}
			for r := range clean {
				for i := range clean[r] {
					if got[r][i] != clean[r][i] {
						t.Fatalf("rank %d element %d: recovered %v, fault-free %v", r, i, got[r][i], clean[r][i])
					}
				}
			}
		})
	}
}

func TestControllerPassesThroughNonCrashFailures(t *testing.T) {
	// A run that dies for a non-crash reason (an application bug) must
	// pass through the controller unchanged — no retry, no rollback.
	cfg := netsim.Summit(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 25}
	ct := &recov.Controller{}
	attempts := 0
	out, err := ct.Run(cfg, nil, func(c *mpi.Comm, rk *recov.Rank) {
		if c.Rank() == 0 {
			attempts++
		}
		if c.Rank() == 2 {
			panic("application bug, not a crash")
		}
	})
	if err == nil {
		t.Fatal("rank panic swallowed")
	}
	var ue *recov.UnrecoverableError
	if errors.As(err, &ue) {
		t.Fatalf("non-crash failure misclassified as unrecoverable crash: %v", err)
	}
	if attempts != 1 || out.Attempts != 1 {
		t.Errorf("non-crash failure retried: %d attempts", attempts)
	}
}
