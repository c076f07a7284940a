package recover

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// Registry names of the elastic shrink path (printed under shrink/*).
// MTTR after a shrink is tracked separately from plain respawn MTTR: a
// shrink pays agreement + re-planning + migration on top of the backoff.
const (
	MetricShrinks       = "shrink/events"
	MetricShrinkLost    = "shrink/ranks_lost"
	MetricShrinkMTTRS   = "shrink/mttr_s"
	MetricMigratedBytes = "shrink/migrated_bytes"
)

// Recovery-event labels (obs.EventRecovery), in protocol order. The
// shrink labels trace the elastic arc: verdict (respawn budget
// exhausted for a dead rank) → agree (survivors fixed the membership) →
// replan (pipeline rebuilt at the new size) → migrate (checkpoint data
// redistributed) → resume.
const (
	LabelCommit        = "commit"
	LabelCrashVerdict  = "crash_verdict"
	LabelRollback      = "rollback"
	LabelRespawn       = "respawn"
	LabelResume        = "resume"
	LabelGiveUp        = "give_up"
	LabelShrinkVerdict = "shrink_verdict"
	LabelShrinkAgree   = "shrink_agree"
	LabelReplan        = "replan"
	LabelMigrate       = "migrate"
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
	// ReadBW is the store's read bandwidth for shrink migration (each
	// survivor pays it per peer snapshot it fetches); 0 takes WriteBW.
	ReadBW float64
	// Shrink enables elastic shrink recovery: when the restart budget is
	// exhausted by a crash verdict, instead of giving up the survivors
	// agree on the reduced membership (mpi.Comm.Shrink), the pipeline is
	// re-planned at P−k ranks, the last committed cut's snapshots are
	// migrated to the new owners, and stepping resumes — with a fresh
	// restart budget for the shrunken membership. Off (the default)
	// preserves the historic give-up behavior byte-for-byte.
	Shrink bool
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
	if p.ReadBW == 0 {
		p.ReadBW = p.WriteBW
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
	readBW  float64

	// Shrink-migration context, set by the controller on the first
	// attempt of a shrunken membership that must redistribute the resume
	// epoch's snapshots (all zero otherwise): prevSize/prevRank locate
	// this rank in the membership that committed the resume epoch, and
	// oldToNew maps each old local rank to its new local rank (-1 for a
	// rank that died).
	migrate  bool
	prevSize int
	prevRank int
	oldToNew []int
}

// Resume returns the committed epoch this attempt resumes from (-1 for
// a fresh start).
func (rk *Rank) Resume() int {
	if rk == nil {
		return -1
	}
	return rk.resume
}

// Migrating reports whether this attempt must redistribute the resume
// epoch's snapshots from a larger previous membership (the shrink
// migration phase; docs/ROBUSTNESS.md).
func (rk *Rank) Migrating() bool { return rk != nil && rk.migrate }

// PrevSize returns the rank count of the membership that committed the
// resume epoch (0 when not migrating).
func (rk *Rank) PrevSize() int {
	if rk == nil {
		return 0
	}
	return rk.prevSize
}

// PrevRank returns this rank's local rank in the previous membership
// (-1 when not migrating).
func (rk *Rank) PrevRank() int {
	if rk == nil || !rk.migrate {
		return -1
	}
	return rk.prevRank
}

// OldToNew maps each previous-membership local rank to its local rank
// in the current membership (-1 = dead). Nil when not migrating; the
// caller must not mutate it.
func (rk *Rank) OldToNew() []int {
	if rk == nil {
		return nil
	}
	return rk.oldToNew
}

// Restore fetches and CRC-validates this rank's snapshot of the resume
// epoch.
func (rk *Rank) Restore() ([]byte, error) {
	if rk == nil || rk.resume < 0 {
		return nil, fmt.Errorf("recover: nothing to restore")
	}
	return rk.st.Restore(rk.c.Rank(), rk.resume)
}

// RestorePeer fetches a previous-membership rank's snapshot of the
// resume epoch — the shrink migration's read path — charging the
// store's read bandwidth to this rank's clock.
func (rk *Rank) RestorePeer(oldRank int) ([]byte, error) {
	if rk == nil || rk.resume < 0 {
		return nil, fmt.Errorf("recover: nothing to restore")
	}
	snap, err := rk.st.Restore(oldRank, rk.resume)
	if err != nil {
		return nil, err
	}
	rk.c.Elapse(float64(len(snap)+frameHdr) / rk.readBW)
	return snap, nil
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

// Shrink records one elastic shrink arc: the membership change and its
// timeline (respawn budget exhausted → agreement → re-plan → migrate →
// resume).
type Shrink struct {
	Attempt  int     // attempt (within its arc) whose failure triggered the shrink
	Dead     []int   // global ranks shrunk away, ascending
	FromSize int     // membership size before
	ToSize   int     // membership size after
	Epoch    int     // committed epoch migrated from (-1 = restart from scratch)
	CrashT   float64 // virtual time of the first crash of the failing attempt
	DetectT  float64 // virtual time of the watchdog verdict
	ResumeT  float64 // virtual time the shrunken membership resumed at
	Cause    string  // the verdict's diagnostic
}

// Outcome summarizes a completed (recovered or fault-free) run.
type Outcome struct {
	Result     netsim.Result
	Attempts   int // bodies executed; 1 means no recovery was needed
	Recoveries []Recovery
	// Shrinks records the elastic shrink arcs the run survived (empty
	// unless Policy.Shrink absorbed a permanent rank loss).
	Shrinks []Shrink
	// Survivors is the final membership as global ranks — nil when the
	// run finished at full size, the post-shrink group otherwise.
	Survivors []int
	// MTTRSeconds is the total virtual crash→resume time across all
	// recoveries and shrinks (0 for a fault-free run).
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
	var shrinks []Shrink
	var resumeAt float64
	plan := cfg.Faults
	// Elastic-shrink membership state. members is the current membership
	// as global ranks (nil = full world, the only shape Policy.Shrink
	// off ever sees); ownerMembers is the membership that committed the
	// current resume epoch, so a mismatch means the next attempt must
	// migrate snapshot data to the new owners.
	var members []int
	ownerMembers := members
	deadSet := make(map[int]bool)
	totalAttempts := 0
	for attempt := 0; ; attempt++ {
		attCfg := cfg
		attCfg.Faults = plan
		// Mirror crash/kill fault events so the verdict can time the
		// outage and the shrink path can name the dead; the observer runs
		// on the scheduler goroutine and the engine joins it before
		// returning, so the capture is race-free.
		var crashT []float64
		var crashed []int
		prevObs := attCfg.FaultObserver
		attCfg.FaultObserver = func(fe netsim.FaultEvent) {
			if fe.Kind == "crash" || fe.Kind == "kill" {
				crashT = append(crashT, fe.T)
				crashed = append(crashed, fe.Src)
			}
			if prevObs != nil {
				prevObs(fe)
			}
		}
		resumeEpoch := st.LastCommitted()
		startAt := resumeAt
		rankCtx := migrationContext(members, ownerMembers, resumeEpoch)
		res, err := mpi.RunWithChecked(attCfg, rec, func(c *mpi.Comm) {
			if members != nil && deadSet[c.Rank()] {
				return // dead ranks never rejoin — their body is a no-op
			}
			if startAt > 0 {
				c.AdvanceTo(startAt)
			}
			cc := c
			if members != nil {
				cc = c.Shrink(deadRanks(deadSet))
			}
			rk := &Rank{st: st, c: cc, resume: resumeEpoch, writeBW: pol.WriteBW, readBW: pol.ReadBW}
			rankCtx.apply(rk, cc.GlobalRank())
			body(cc, rk)
		})
		totalAttempts++
		if st.LastCommitted() > resumeEpoch {
			// The current membership advanced the committed cut; it owns
			// the snapshots rollback would now return to.
			ownerMembers = members
		}
		if err == nil {
			var mttr float64
			for _, r := range recoveries {
				mttr += r.ResumeT - r.CrashT
			}
			for _, s := range shrinks {
				mttr += s.ResumeT - s.CrashT
			}
			return Outcome{Result: res, Attempts: totalAttempts, Recoveries: recoveries,
				Shrinks: shrinks, Survivors: members, MTTRSeconds: mttr}, nil
		}
		detectT, cause, isCrash := crashVerdict(err, res, crashT)
		if !isCrash {
			return Outcome{Result: res, Attempts: totalAttempts, Recoveries: recoveries,
				Shrinks: shrinks, Survivors: members}, err
		}
		log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelCrashVerdict,
			Peer: -1, Value: float64(st.LastCommitted()), Msg: cause})
		firstCrash := detectT
		if len(crashT) > 0 {
			firstCrash = crashT[0]
		}
		if attempt >= pol.MaxRestarts {
			newDead := survivableDead(members, deadSet, crashed, cfg.Ranks())
			if !pol.Shrink || len(newDead) == 0 {
				log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelGiveUp,
					Peer: -1, Value: float64(st.LastCommitted()),
					Msg: fmt.Sprintf("restart budget (%d) exhausted", pol.MaxRestarts)})
				return Outcome{Result: res, Attempts: totalAttempts, Recoveries: recoveries,
						Shrinks: shrinks, Survivors: members},
					&UnrecoverableError{Attempts: totalAttempts, LastEpoch: st.LastCommitted(),
						Recoveries: recoveries, Cause: err}
			}
			// Elastic shrink: drop the ranks that exhausted the budget,
			// resume the survivors on a re-decomposed pipeline with a
			// fresh budget (docs/ROBUSTNESS.md).
			st.Rollback()
			epoch := st.LastCommitted()
			fromSize := memberCount(members, cfg.Ranks())
			if ownerMembers == nil && epoch >= 0 {
				// The full world committed the epoch the survivors will
				// migrate from; materialize it so the rank mappings exist.
				ownerMembers = worldList(cfg.Ranks())
			}
			for _, r := range newDead {
				deadSet[r] = true
			}
			members = survivorList(members, deadSet, cfg.Ranks())
			resumeAt = detectT + backoffDelay(pol, attempt, jitter)
			sh := Shrink{Attempt: attempt, Dead: newDead, FromSize: fromSize, ToSize: len(members),
				Epoch: epoch, CrashT: firstCrash, DetectT: detectT, ResumeT: resumeAt, Cause: cause}
			shrinks = append(shrinks, sh)
			if plan != nil {
				plan = plan.WithCrashesAfter(detectT)
			}
			log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelShrinkVerdict,
				Peer: -1, Value: float64(len(newDead)), Msg: cause})
			log.Emit(obs.Event{T: detectT, Rank: -1, Kind: obs.EventRecovery, Label: LabelShrinkAgree,
				Peer: -1, Value: float64(len(members)), Msg: fmt.Sprintf("dead %v", newDead)})
			log.Emit(obs.Event{T: resumeAt, Rank: -1, Kind: obs.EventRecovery, Label: LabelReplan,
				Peer: -1, Value: float64(len(members)), Msg: fmt.Sprintf("%d -> %d ranks", fromSize, len(members))})
			if epoch >= 0 {
				log.Emit(obs.Event{T: resumeAt, Rank: -1, Kind: obs.EventRecovery, Label: LabelMigrate,
					Peer: -1, Value: float64(epoch)})
			}
			log.Emit(obs.Event{T: resumeAt, Rank: -1, Kind: obs.EventRecovery, Label: LabelResume,
				Peer: -1, Value: float64(epoch)})
			met.Add(MetricShrinks, 1)
			met.Add(MetricShrinkLost, int64(len(newDead)))
			met.Add(MetricRollbacks, 1)
			met.Observe(MetricShrinkMTTRS, resumeAt-firstCrash)
			attempt = -1 // fresh restart budget for the shrunken membership
			continue
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

// memberCount returns the size of a membership (nil = full world).
func memberCount(members []int, world int) int {
	if members == nil {
		return world
	}
	return len(members)
}

// deadRanks returns the dead set as a sorted slice of global ranks.
func deadRanks(deadSet map[int]bool) []int {
	out := make([]int, 0, len(deadSet))
	for r := range deadSet {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// worldList materializes the full-world membership 0..world-1.
func worldList(world int) []int {
	out := make([]int, world)
	for i := range out {
		out[i] = i
	}
	return out
}

// survivableDead filters the attempt's crashed ranks down to the new
// deaths that leave at least one survivor: already-dead ranks are
// dropped, and if removing the crashed ranks would empty the membership
// the shrink is not survivable and nil is returned.
func survivableDead(members []int, deadSet map[int]bool, crashed []int, world int) []int {
	fresh := make(map[int]bool)
	for _, r := range crashed {
		if !deadSet[r] {
			fresh[r] = true
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	if memberCount(members, world)-len(fresh) < 1 {
		return nil
	}
	return deadRanks(fresh)
}

// survivorList materializes the membership left after removing the dead
// set from the current membership.
func survivorList(members []int, deadSet map[int]bool, world int) []int {
	var out []int
	if members == nil {
		members = worldList(world)
	}
	for _, r := range members {
		if !deadSet[r] {
			out = append(out, r)
		}
	}
	return out
}

// rankContext carries the per-attempt migration wiring from the
// controller into each rank's handle.
type rankContext struct {
	migrate  bool
	prevSize int
	prevRank map[int]int // global rank → local rank in the owner membership
	oldToNew []int       // owner-membership local rank → current local rank (-1 = dead)
}

// migrationContext decides whether the next attempt must migrate and
// precomputes the rank mappings: it must when a committed epoch exists
// whose snapshots were written by a different (larger) membership than
// the one about to run. The controller materializes the world owner
// list before the first shrink, so ownerMembers is nil only when
// members is too.
func migrationContext(members, ownerMembers []int, resumeEpoch int) rankContext {
	if resumeEpoch < 0 || equalMembers(members, ownerMembers) {
		return rankContext{}
	}
	ctx := rankContext{migrate: true, prevSize: len(ownerMembers)}
	newLocal := make(map[int]int, len(members))
	for i, g := range members {
		newLocal[g] = i
	}
	ctx.prevRank = make(map[int]int, len(ownerMembers))
	ctx.oldToNew = make([]int, len(ownerMembers))
	for old, g := range ownerMembers {
		ctx.prevRank[g] = old
		if nw, ok := newLocal[g]; ok {
			ctx.oldToNew[old] = nw
		} else {
			ctx.oldToNew[old] = -1
		}
	}
	return ctx
}

// apply installs the migration context into one rank's handle.
func (ctx rankContext) apply(rk *Rank, globalRank int) {
	if !ctx.migrate {
		return
	}
	rk.migrate = true
	rk.prevSize = ctx.prevSize
	rk.oldToNew = ctx.oldToNew
	if old, ok := ctx.prevRank[globalRank]; ok {
		rk.prevRank = old
	} else {
		rk.prevRank = -1
	}
}

// equalMembers reports whether two memberships are identical (nil means
// the full world).
func equalMembers(a, b []int) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
