package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// RetryPolicy parameterizes the transparent retransmission the simulated
// transport performs underneath every message (the stand-in for UCX
// retransmit / NIC failover on a real fabric), and the virtual-time
// watchdog deadline the runtime layers apply to blocked receives.
type RetryPolicy struct {
	// MaxRetries bounds the transport-level retransmissions of one
	// message; a message still undeliverable afterwards is permanently
	// lost and must be handled by the layers above.
	MaxRetries int
	// RTO is the base retransmit timeout in virtual seconds; attempt k
	// waits RTO·Backoff^(k-1) before resending.
	RTO     float64
	Backoff float64
	// OpDeadline is the watchdog deadline applied to one blocked receive
	// by the reliable runtime: when no matching message can arrive within
	// it, the receive fails with a diagnostic instead of hanging.
	OpDeadline float64
}

// DefaultRetryPolicy returns the retry/watchdog knobs used when a fault
// plan does not override them.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 6, RTO: 10e-6, Backoff: 2, OpDeadline: 20e-3}
}

// WithDefaults returns the policy with zero-value knobs replaced by the
// defaults (used by the runtime layers to resolve the effective policy).
func (r RetryPolicy) WithDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if r.MaxRetries == 0 {
		r.MaxRetries = d.MaxRetries
	}
	if r.RTO == 0 {
		r.RTO = d.RTO
	}
	if r.Backoff == 0 {
		r.Backoff = d.Backoff
	}
	if r.OpDeadline == 0 {
		r.OpDeadline = d.OpDeadline
	}
	return r
}

// FaultPlan is a deterministic, seeded description of the faults
// injected into one run. A nil plan (Config.Faults == nil) disables the
// fault layer entirely: the engine takes the exact code paths it takes
// without it, so fault-free runs are byte-identical whether the layer
// exists or not.
//
// All probabilities are per message (per transmission attempt for the
// transport-level ones). The same seed always yields the same fault
// sequence because the engine consults one RNG in deterministic
// scheduler order.
type FaultPlan struct {
	Seed int64

	// DropProb is the probability one transmission attempt is lost on
	// the wire. The transport retransmits (see Retry); each retry adds
	// backoff delay to the arrival. A message still lost after
	// MaxRetries is permanently dropped.
	DropProb float64
	// CorruptProb is the probability one attempt arrives damaged but is
	// caught by the link-level CRC — indistinguishable from a drop to
	// the layers above, it also triggers a retransmit.
	CorruptProb float64
	// SilentCorruptProb is the probability a delivered payload is
	// mangled *without* the transport noticing. It only applies to
	// one-sided (unmatched) put payloads of at least SilentMinBytes:
	// GPU-direct RDMA bypasses the CPU protocol stack that checksums
	// two-sided traffic, which is exactly why the reliable runtime adds
	// its own per-message checksums on that path.
	SilentCorruptProb float64
	// SilentMinBytes exempts small (header-protected) payloads from
	// silent corruption; defaults to 64.
	SilentMinBytes int

	// DuplicateProb delivers a message twice (retransmit races).
	DuplicateProb float64

	// LatencySpikeProb adds LatencySpike seconds to a message's arrival
	// (adaptive-routing detours, congestion bursts).
	LatencySpikeProb float64
	LatencySpike     float64

	// StallProb freezes the sender for Stall seconds before a message is
	// injected (transient OS noise / driver hiccups on one rank).
	StallProb float64
	Stall     float64

	// DegradedNodes maps a node id to the bandwidth factor (0 < f ≤ 1)
	// its NICs and bus run at (a degraded or failed-over NIC).
	DegradedNodes map[int]float64

	// CrashRank permanently crashes that rank at virtual time CrashAt:
	// it stops sending, receiving, and participating; peers observe it
	// through watchdog timeouts or the deadlock diagnostic. The crash is
	// enabled only when CrashAt > 0, so the zero value injects nothing
	// (use a tiny CrashAt to crash "at startup").
	CrashRank int
	CrashAt   float64

	// CrashSchedule lists additional crashes beyond CrashRank/CrashAt.
	// The recovery controller (internal/recover) uses multi-crash plans
	// to exercise crash-during-recovery double faults: entries whose time
	// falls after a restart's resume point are still armed on the next
	// attempt.
	CrashSchedule []CrashSpec

	// Retry overrides the transport retry/watchdog policy (zero fields
	// take defaults).
	Retry RetryPolicy
}

// withDefaults returns a copy with zero-value knobs filled in.
func (p *FaultPlan) withDefaults() FaultPlan {
	q := *p
	if q.SilentMinBytes == 0 {
		q.SilentMinBytes = 64
	}
	q.Retry = q.Retry.WithDefaults()
	return q
}

// FaultStats counts the faults injected into a run and the transport's
// recovery work. Embedded in Stats; all-zero when no plan is attached.
type FaultStats struct {
	Drops           int     // transmission attempts lost on the wire
	DetectedCorrupt int     // attempts damaged but caught by the link CRC
	SilentCorrupt   int     // payloads delivered mangled
	Duplicates      int     // messages delivered twice
	Spikes          int     // latency spikes applied
	Stalls          int     // sender stalls applied
	Retries         int     // transport retransmissions
	Lost            int     // messages permanently lost (retries exhausted)
	RetryDelayS     float64 // total virtual seconds of retransmit backoff
	Crashes         int     // ranks parked by a crash
}

// FaultEvent describes one injected fault, delivered to
// Config.FaultObserver serially, in processing order, as the engine
// decides it. Kind is one of "stall", "spike", "retry", "lost",
// "silent_corrupt", "duplicate" or "crash"; Delay carries the virtual
// seconds a stall/spike/retry added (0 otherwise). Dst is -1 for
// crashes, which have no message in flight.
type FaultEvent struct {
	T        float64 // virtual time at the deciding proc
	Kind     string
	Src, Dst int
	Tag      int
	Delay    float64
}

// injector applies a FaultPlan deterministically. It is consulted only
// from the engine's deliver path, whose order the scheduler makes
// deterministic, so one seed always produces one fault sequence.
type injector struct {
	plan  FaultPlan
	rng   *rand.Rand
	stats *FaultStats
}

func newInjector(plan *FaultPlan, stats *FaultStats) *injector {
	p := plan.withDefaults()
	return &injector{plan: p, rng: rand.New(rand.NewSource(p.Seed)), stats: stats}
}

// stall returns the sender-side stall to apply before injecting the
// next message.
func (in *injector) stall() float64 {
	if in.plan.StallProb > 0 && in.rng.Float64() < in.plan.StallProb {
		in.stats.Stalls++
		return in.plan.Stall
	}
	return 0
}

// bwFactor returns the bandwidth degradation factor of a transfer
// between two nodes (the slower endpoint dominates).
func (in *injector) bwFactor(srcNode, dstNode int) float64 {
	f := 1.0
	if g, ok := in.plan.DegradedNodes[srcNode]; ok && g < f {
		f = g
	}
	if g, ok := in.plan.DegradedNodes[dstNode]; ok && g < f {
		f = g
	}
	if f <= 0 {
		f = 1e-3 // a dead NIC still trickles; zero would stop time
	}
	return f
}

// transfer simulates the transport-level fate of one message: each
// attempt may be dropped or detectably corrupted, in which case the
// transport retransmits after an exponential backoff. It returns the
// total added delay and whether the message was permanently lost.
func (in *injector) transfer() (delay float64, lost bool) {
	pol := in.plan.Retry
	pFail := in.plan.DropProb + in.plan.CorruptProb
	if pFail <= 0 {
		return 0, false
	}
	backoff := pol.RTO
	for attempt := 0; ; attempt++ {
		r := in.rng.Float64()
		if r >= pFail {
			return delay, false
		}
		if r < in.plan.DropProb {
			in.stats.Drops++
		} else {
			in.stats.DetectedCorrupt++
		}
		if attempt >= pol.MaxRetries {
			in.stats.Lost++
			return delay, true
		}
		in.stats.Retries++
		delay += backoff
		in.stats.RetryDelayS += backoff
		backoff *= pol.Backoff
	}
}

// spike returns the extra arrival latency of the next message.
func (in *injector) spike() float64 {
	if in.plan.LatencySpikeProb > 0 && in.rng.Float64() < in.plan.LatencySpikeProb {
		in.stats.Spikes++
		return in.plan.LatencySpike
	}
	return 0
}

// corrupt possibly returns a silently mangled copy of a put payload
// (nil means deliver the original). Two-sided payloads pass through the
// checksummed CPU protocol stack and are never silently corrupted.
func (in *injector) corrupt(payload []byte, unmatched bool) []byte {
	if !unmatched || len(payload) < in.plan.SilentMinBytes || in.plan.SilentCorruptProb <= 0 {
		return nil
	}
	if in.rng.Float64() >= in.plan.SilentCorruptProb {
		return nil
	}
	in.stats.SilentCorrupt++
	bad := append([]byte(nil), payload...)
	// Flip a burst of bytes at a random position (never a no-op).
	pos := in.rng.Intn(len(bad))
	n := 1 + in.rng.Intn(8)
	for i := 0; i < n && pos+i < len(bad); i++ {
		bad[pos+i] ^= 0xa5
	}
	return bad
}

// duplicate reports whether the next message is delivered twice.
func (in *injector) duplicate() bool {
	if in.plan.DuplicateProb > 0 && in.rng.Float64() < in.plan.DuplicateProb {
		in.stats.Duplicates++
		return true
	}
	return false
}

// crashed reports whether rank must be parked at time now.
func (in *injector) crashed(rank int, now float64) bool {
	if in.plan.CrashAt > 0 && in.plan.CrashRank == rank && now >= in.plan.CrashAt {
		return true
	}
	for _, cs := range in.plan.CrashSchedule {
		if cs.At > 0 && cs.Rank == rank && now >= cs.At {
			return true
		}
	}
	return false
}

// CrashSpec schedules one rank crash at a virtual time (see
// FaultPlan.CrashSchedule). The zero value injects nothing.
type CrashSpec struct {
	Rank int
	At   float64
}

// Crashes returns every enabled crash of the plan (the legacy
// CrashRank/CrashAt pair plus the schedule), sorted by time.
func (p *FaultPlan) Crashes() []CrashSpec {
	var out []CrashSpec
	if p.CrashAt > 0 {
		out = append(out, CrashSpec{Rank: p.CrashRank, At: p.CrashAt})
	}
	for _, cs := range p.CrashSchedule {
		if cs.At > 0 {
			out = append(out, cs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// WithCrashesAfter returns a copy of the plan keeping only the crashes
// strictly later than t — what remains armed after a recovery rolled the
// pipeline back past the crashes already absorbed. The copy's RNG seed
// is left untouched; the caller reseeds per attempt if it wants fresh
// (still deterministic) transport noise.
func (p *FaultPlan) WithCrashesAfter(t float64) *FaultPlan {
	q := *p
	q.CrashRank, q.CrashAt = 0, 0
	q.CrashSchedule = nil
	for _, cs := range p.Crashes() {
		if cs.At > t {
			q.CrashSchedule = append(q.CrashSchedule, cs)
		}
	}
	return &q
}

// RandomPlan derives a complete fault plan from one seed, cycling
// through scenario classes so a sweep of consecutive seeds exercises
// every fault type: drop storms, corruption (detected and silent),
// duplicate/latency chaos, degraded NICs, rank stalls, a rank crash,
// and an everything-at-once mix. Used by the chaos harness and the
// -faults flag of the benches.
func RandomPlan(seed int64) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{Seed: seed}
	switch scenario := seed % 7; scenario {
	case 0: // drop storm — the transport heals everything
		p.DropProb = 0.05 + 0.25*rng.Float64()
	case 1: // link CRC corruption — also healed by retransmit
		p.CorruptProb = 0.05 + 0.25*rng.Float64()
	case 2: // silent put corruption — caught by runtime checksums
		p.SilentCorruptProb = 0.1 + 0.4*rng.Float64()
	case 3: // duplicates and latency spikes
		p.DuplicateProb = 0.05 + 0.2*rng.Float64()
		p.LatencySpikeProb = 0.05 + 0.15*rng.Float64()
		p.LatencySpike = 50e-6 + 500e-6*rng.Float64()
	case 4: // one node's NIC degraded, plus rank stalls
		p.DegradedNodes = map[int]float64{int(seed % 2): 0.1 + 0.4*rng.Float64()}
		p.StallProb = 0.02 + 0.08*rng.Float64()
		p.Stall = 20e-6 + 200e-6*rng.Float64()
	case 5: // permanent rank crash — peers must terminate with diagnostics
		p.CrashRank = int(seed % 5)
		p.CrashAt = 100e-6 + 2e-3*rng.Float64()
	default: // everything at once, gentler rates
		p.DropProb = 0.02 + 0.08*rng.Float64()
		p.CorruptProb = 0.02 + 0.05*rng.Float64()
		p.SilentCorruptProb = 0.05 + 0.15*rng.Float64()
		p.DuplicateProb = 0.02 + 0.08*rng.Float64()
		p.LatencySpikeProb = 0.05 * rng.Float64()
		p.LatencySpike = 100e-6
		p.StallProb = 0.02 * rng.Float64()
		p.Stall = 50e-6
	}
	return p
}

// Scenario names the plan's dominant fault class for reports.
func (p *FaultPlan) Scenario() string {
	var parts []string
	if p.DropProb > 0 {
		parts = append(parts, "drops")
	}
	if p.CorruptProb > 0 {
		parts = append(parts, "corrupt")
	}
	if p.SilentCorruptProb > 0 {
		parts = append(parts, "silent-corrupt")
	}
	if p.DuplicateProb > 0 {
		parts = append(parts, "dups")
	}
	if p.LatencySpikeProb > 0 {
		parts = append(parts, "spikes")
	}
	if p.StallProb > 0 {
		parts = append(parts, "stalls")
	}
	if len(p.DegradedNodes) > 0 {
		parts = append(parts, "degraded-nic")
	}
	if p.CrashAt > 0 {
		parts = append(parts, fmt.Sprintf("crash-rank%d", p.CrashRank))
	}
	for _, cs := range p.CrashSchedule {
		if cs.At > 0 {
			parts = append(parts, fmt.Sprintf("crash-rank%d", cs.Rank))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// BlockedOp describes one rank stuck in a receive of (Src, Tag) when a
// run deadlocked, or, if Want > 0, in a drain of Tag with Landed puts.
type BlockedOp struct {
	Rank, Src, Tag int
	Landed, Want   int
	Clock          float64
}

// DeadlockError is returned by RunChecked when every live rank is
// blocked with no message able to arrive: the watchdog's structural
// diagnostic, listing each blocked rank's pending operation.
type DeadlockError struct {
	Blocked []BlockedOp
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	b.WriteString("netsim: deadlock — all ranks blocked:")
	for i, op := range e.Blocked {
		if i == 16 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(e.Blocked)-16)
			break
		}
		if op.Want > 0 {
			fmt.Fprintf(&b, "\n  rank %d drains tag %d with %d of %d puts landed at t=%.3gs", op.Rank, op.Tag, op.Landed, op.Want, op.Clock)
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d waits for (src=%d, tag=%d) at t=%.3gs", op.Rank, op.Src, op.Tag, op.Clock)
	}
	return b.String()
}

// RankFailure records one rank body that panicked during a checked run.
type RankFailure struct {
	Rank  int
	Value interface{} // the recovered panic value
}

func (f RankFailure) String() string {
	if err, ok := f.Value.(error); ok {
		return fmt.Sprintf("rank %d: %v", f.Rank, err)
	}
	return fmt.Sprintf("rank %d: panic: %v", f.Rank, f.Value)
}

// RunError aggregates everything that went wrong in a checked run: the
// ranks whose bodies failed (in failure order) and, if the remaining
// ranks could then no longer make progress, the deadlock diagnostic.
type RunError struct {
	Failures []RankFailure
	Deadlock *DeadlockError
}

// Error lists the failures in the order they happened, so the first is
// the one Unwrap returns when it is an error, then the deadlock.
func (e *RunError) Error() string {
	var parts []string
	for _, f := range e.Failures {
		parts = append(parts, f.String())
	}
	if e.Deadlock != nil {
		parts = append(parts, e.Deadlock.Error())
	}
	return strings.Join(parts, "; ")
}

// Unwrap exposes the first failure that is an error (for errors.As on
// typed runtime faults).
func (e *RunError) Unwrap() error {
	for _, f := range e.Failures {
		if err, ok := f.Value.(error); ok {
			return err
		}
	}
	return nil
}
