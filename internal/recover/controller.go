package recover

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Registry names of the recovery subsystem (the -metrics report prints
// them under recovery/*).
const (
	MetricCheckpoints         = "recovery/checkpoints"
	MetricCheckpointBytes     = "recovery/checkpoint_bytes"
	MetricCheckpointOverheadS = "recovery/checkpoint_overhead_s"
	MetricRollbacks           = "recovery/rollbacks"
	MetricRestarts            = "recovery/restarts"
	MetricMTTRS               = "recovery/mttr_s"
)

// Recovery-event labels (obs.EventRecovery), in protocol order.
const (
	LabelCommit       = "commit"
	LabelCrashVerdict = "crash_verdict"
	LabelRollback     = "rollback"
	LabelRespawn      = "respawn"
	LabelResume       = "resume"
	LabelGiveUp       = "give_up"
)

// Policy bounds and paces the restart loop. All delays are virtual
// seconds; the jitter is drawn from a seeded RNG, so one policy and one
// fault plan always produce one recovery timeline (bit-identical across
// engines).
type Policy struct {
	// MaxRestarts bounds the recovery attempts before the run is declared
	// unrecoverable. 0 takes the default (3); negative disables recovery
	// (any crash is immediately unrecoverable).
	MaxRestarts int
	// Backoff is the delay between the crash verdict and the resume of
	// attempt 1; attempt k waits Backoff·BackoffFactor^(k-1).
	Backoff       float64
	BackoffFactor float64
	// MaxBackoff caps the exponential growth of the backoff delay
	// (before jitter); 0 leaves it uncapped, preserving the historic
	// timeline exactly.
	MaxBackoff float64
	// JitterFrac scatters each delay by up to this fraction (decorrelates
	// restart storms; deterministic via Seed).
	JitterFrac float64
	Seed       int64
	// WriteBW is the checkpoint store's write bandwidth in bytes/s (the
	// virtual cost each rank pays per snapshot).
	WriteBW float64
}

// withDefaults fills zero-valued knobs.
func (p Policy) withDefaults() Policy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 3
	}
	if p.Backoff == 0 {
		p.Backoff = 1e-3
	}
	if p.BackoffFactor == 0 {
		p.BackoffFactor = 2
	}
	if p.WriteBW == 0 {
		p.WriteBW = 25e9
	}
	return p
}

// backoffBase returns the undithered delay before the respawn of the
// given attempt (0-based): Backoff·BackoffFactor^attempt, capped at
// MaxBackoff when one is set.
func backoffBase(pol Policy, attempt int) float64 {
	delay := pol.Backoff
	for i := 0; i < attempt; i++ {
		delay *= pol.BackoffFactor
		if pol.MaxBackoff > 0 && delay >= pol.MaxBackoff {
			return pol.MaxBackoff
		}
	}
	if pol.MaxBackoff > 0 && delay > pol.MaxBackoff {
		delay = pol.MaxBackoff
	}
	return delay
}

// backoffDelay is backoffBase with the policy's deterministic jitter
// applied. It always consumes exactly one draw from the jitter stream,
// so the recovery timeline is a pure function of the policy seed and
// the number of recoveries so far.
func backoffDelay(pol Policy, attempt int, jitter *rand.Rand) float64 {
	return backoffBase(pol, attempt) * (1 + pol.JitterFrac*jitter.Float64())
}

// Rank is one rank's per-attempt handle onto the checkpoint store: the
// epoch to resume from (fixed for the whole attempt by the controller)
// and the two-phase Checkpoint collective. A nil handle is valid and
// makes every operation a no-op reporting a fresh start, so pipeline
// code can thread it unconditionally — checkpointing off costs nothing.
type Rank struct {
	st      *Store
	c       *mpi.Comm
	resume  int
	writeBW float64
}

// Resume returns the committed epoch this attempt resumes from (-1 for
// a fresh start).
func (rk *Rank) Resume() int {
	if rk == nil {
		return -1
	}
	return rk.resume
}

// Restore fetches and CRC-validates this rank's snapshot of the resume
// epoch.
func (rk *Rank) Restore() ([]byte, error) {
	if rk == nil || rk.resume < 0 {
		return nil, fmt.Errorf("recover: nothing to restore")
	}
	return rk.st.Restore(rk.c.Rank(), rk.resume)
}

// Checkpoint persists this rank's snapshot of an epoch and commits the
// cut: save (phase one, paying the store's write bandwidth in virtual
// time), synchronize, then rank 0 flips the commit marker (phase two)
// and emits the "commit" recovery event. A rank crashing anywhere
// before the commit leaves the epoch pending — invisible to rollback —
// so the store never holds a torn cut.
func (rk *Rank) Checkpoint(epoch int, snap []byte) {
	if rk == nil {
		return
	}
	c := rk.c
	t0 := c.Now()
	rk.st.Save(c.Rank(), epoch, snap)
	c.Elapse(float64(len(snap)+frameHdr) / rk.writeBW)
	c.Barrier()
	o := c.Obs()
	if c.Rank() == 0 {
		rk.st.Commit(epoch)
		o.Emit(obs.Event{T: c.Now(), Kind: obs.EventRecovery, Label: LabelCommit,
			Peer: -1, Value: float64(epoch)})
	}
	o.Add(MetricCheckpoints, 1)
	o.Add(MetricCheckpointBytes, int64(len(snap)+frameHdr))
	o.Observe(MetricCheckpointOverheadS, c.Now()-t0)
}

// Recovery records one absorbed crash: when it happened, when the
// watchdog verdict landed, the epoch rolled back to, and when the
// pipeline resumed.
type Recovery struct {
	Attempt int     // the attempt that crashed (0-based)
	Epoch   int     // committed epoch rolled back to (-1 = from scratch)
	CrashT  float64 // virtual time of the first crash of the attempt
	DetectT float64 // virtual time of the watchdog verdict
	ResumeT float64 // virtual time the next attempt resumed at
	Cause   string  // the verdict's diagnostic
}

// Outcome summarizes a completed (recovered or fault-free) run.
type Outcome struct {
	Result     netsim.Result
	Attempts   int // bodies executed; 1 means no recovery was needed
	Recoveries []Recovery
	// MTTRSeconds is the total virtual crash→resume time across all
	// recoveries (0 for a fault-free run).
	MTTRSeconds float64
}

// UnrecoverableError is the typed give-up diagnosis: the restart budget
// is exhausted (or recovery is disabled) and the run cannot complete.
// Unwrap exposes the final attempt's failure, so errors.As still finds
// the underlying *mpi.FaultError / *netsim.RunError chain.
type UnrecoverableError struct {
	Attempts   int
	LastEpoch  int // last committed epoch at give-up (-1 = none)
	Recoveries []Recovery
	Cause      error
}

func (e *UnrecoverableError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recover: unrecoverable after %d attempt(s), last committed epoch %d", e.Attempts, e.LastEpoch)
	for _, r := range e.Recoveries {
		fmt.Fprintf(&b, "; recovered attempt %d at t=%.3gs (epoch %d)", r.Attempt, r.ResumeT, r.Epoch)
	}
	fmt.Fprintf(&b, ": %v", e.Cause)
	return b.String()
}

func (e *UnrecoverableError) Unwrap() error { return e.Cause }

// Controller owns the checkpoint store and the restart loop. The zero
// value (default policy, fresh store) is usable.
type Controller struct {
	Policy Policy
	Store  *Store
}

// Run executes body under crash recovery: the body runs to completion,
// or — on a watchdog crash verdict — the store rolls back to the last
// committed epoch, the crashed rank is respawned by re-executing the
// deterministic body with the crash pruned from the fault plan and all
// virtual clocks advanced past the backoff, and the pipeline resumes
// from the cut. Crashes scheduled after the verdict stay armed, so a
// second fault during recovery is caught by the same loop. Failures
// that are not crash verdicts pass through unchanged; an exhausted
// restart budget returns *UnrecoverableError.
//
// Everything the loop decides derives from virtual times and seeded
// RNGs, so a faulted-and-recovered run is bit-identical to itself
// across the sequential and parallel engines.
func (ct *Controller) Run(cfg netsim.Config, rec *obs.Recorder, body func(*mpi.Comm, *Rank)) (Outcome, error) {
	pol := ct.Policy.withDefaults()
	if ct.Store == nil {
		ct.Store = NewStore()
	}
	st := ct.Store
	jitter := rand.New(rand.NewSource(pol.Seed ^ 0x5eed0f1a))
	log := rec.EventLog()
	met := rec.Metrics()

	var recoveries []Recovery
	var resumeAt float64
	plan := cfg.Faults
	for attempt := 0; ; attempt++ {
		attCfg := cfg
		attCfg.Faults = plan
		// Mirror crash fault events so the verdict can time the outage;
		// the observer runs serialized on whichever goroutine holds the
		// engine's baton, and the engine has received the baton back on
		// Run's goroutine before returning, so the capture is race-free.
		var crashT []float64
		prevObs := attCfg.FaultObserver
		attCfg.FaultObserver = func(fe netsim.FaultEvent) {
			if fe.Kind == "crash" {
				crashT = append(crashT, fe.T)
			}
			if prevObs != nil {
				prevObs(fe)
			}
		}
		resumeEpoch := st.LastCommitted()
		startAt := resumeAt
		res, err := mpi.RunWithChecked(attCfg, rec, func(c *mpi.Comm) {
			if startAt > 0 {
				c.AdvanceTo(startAt)
			}
			body(c, &Rank{st: st, c: c, resume: resumeEpoch, writeBW: pol.WriteBW})
		})
		if err == nil {
			var mttr float64
			for _, r := range recoveries {
				mttr += r.ResumeT - r.CrashT
			}
			return Outcome{Result: res, Attempts: attempt + 1, Recoveries: recoveries, MTTRSeconds: mttr}, nil
		}
		detectT, cause, isCrash := crashVerdict(err, res, crashT)
		if !isCrash {
			return Outcome{Result: res, Attempts: attempt + 1, Recoveries: recoveries}, err
		}
		log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelCrashVerdict,
			Peer: -1, Value: float64(st.LastCommitted()), Msg: cause})
		firstCrash := detectT
		if len(crashT) > 0 {
			firstCrash = crashT[0]
		}
		if attempt >= pol.MaxRestarts {
			log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelGiveUp,
				Peer: -1, Value: float64(st.LastCommitted()),
				Msg: fmt.Sprintf("restart budget (%d) exhausted", pol.MaxRestarts)})
			return Outcome{Result: res, Attempts: attempt + 1, Recoveries: recoveries},
				&UnrecoverableError{Attempts: attempt + 1, LastEpoch: st.LastCommitted(),
					Recoveries: recoveries, Cause: err}
		}
		// Roll back to the last committed cut and schedule the respawn:
		// exponential backoff with deterministic jitter, in virtual time.
		st.Rollback()
		epoch := st.LastCommitted()
		resumeAt = detectT + backoffDelay(pol, attempt, jitter)
		rcv := Recovery{Attempt: attempt, Epoch: epoch, CrashT: firstCrash,
			DetectT: detectT, ResumeT: resumeAt, Cause: cause}
		recoveries = append(recoveries, rcv)
		// Crashes already absorbed are pruned; later ones stay armed (the
		// double-fault path). The plan keeps its seed: the respawned rank
		// replays the same RNG stream it was born with.
		if plan != nil {
			plan = plan.WithCrashesAfter(detectT)
		}
		log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelRollback,
			Peer: -1, Value: float64(epoch), Msg: cause})
		log.Emit(obs.Event{T: resumeAt, Rank: -1, Kind: obs.EventRecovery, Label: LabelRespawn,
			Peer: -1, Value: float64(epoch), Msg: fmt.Sprintf("attempt %d", attempt+1)})
		log.Emit(obs.Event{T: resumeAt, Rank: -1, Kind: obs.EventRecovery, Label: LabelResume,
			Peer: -1, Value: float64(epoch)})
		met.Add(MetricRollbacks, 1)
		met.Add(MetricRestarts, 1)
		met.Observe(MetricMTTRS, resumeAt-firstCrash)
	}
}

// crashVerdict classifies a failed attempt: it is recoverable when the
// engine observed at least one rank crash and every rank failure is the
// reliable runtime's typed diagnostic (or the structural deadlock) —
// i.e. the run died of the crash, not of a bug. detectT is the latest
// watchdog verdict time, the point recovery can begin from.
func crashVerdict(err error, res netsim.Result, crashT []float64) (detectT float64, cause string, ok bool) {
	if len(crashT) == 0 && res.Stats.Faults.Crashes == 0 {
		return 0, "", false
	}
	var re *netsim.RunError
	if !errors.As(err, &re) {
		return 0, "", false
	}
	for _, f := range re.Failures {
		fe, okf := f.Value.(*mpi.FaultError)
		if !okf {
			return 0, "", false
		}
		if fe.When > detectT {
			detectT = fe.When
		}
	}
	if re.Deadlock != nil {
		for _, b := range re.Deadlock.Blocked {
			if b.Clock > detectT {
				detectT = b.Clock
			}
		}
	}
	if detectT == 0 {
		detectT = res.Time
	}
	return detectT, re.Error(), true
}
