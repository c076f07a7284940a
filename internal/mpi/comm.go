// Package mpi implements the message-passing runtime the reproduction
// uses in place of MPI: two-sided point-to-point with eager/rendezvous
// protocols, the collectives the 3-D FFT pipeline needs (barrier,
// broadcast, gathers, the default linear all-to-all-v baseline), and
// one-sided communication windows (Put / Fence) with window caching, as
// §V of the paper requires.
//
// Semantics and costs follow common MPI implementations: small messages
// are buffered and sent eagerly; large messages pay a rendezvous
// round-trip surcharge; window creation is a collective with a fixed
// setup cost that caching amortizes. All time flows through the netsim
// engine; all payloads are real bytes.
package mpi

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Tag spaces: user tags live below tagUserLimit; internal protocol tags
// are derived above it.
const (
	tagUserLimit = 1 << 20
	tagBarrier   = 1 << 21
	tagCollBase  = 1 << 22
	tagWinBase   = 1 << 23
)

// DefaultEagerThreshold is the message size (bytes) above which the
// rendezvous protocol (an extra round-trip of wire latency) applies.
const DefaultEagerThreshold = 8192

// Comm is a communicator spanning all ranks of the simulated machine.
type Comm struct {
	p              *netsim.Proc
	obs            *obs.Rank
	eagerThreshold int
	barrierEpoch   int
	collEpoch      int
	nextWinID      int
	winCreateCost  float64

	// Reliable mode (auto-enabled when the config carries a fault plan;
	// see reliable.go). All fields stay zero otherwise, and every use is
	// gated on the flag so fault-free runs take the exact plain paths.
	reliable bool
	retry    netsim.RetryPolicy
	sendSeq  map[seqKey]uint32
	recvSeq  map[seqKey]uint32
	// Watchdog forensics (reliable mode only): the virtual time of the
	// last completed reliable operation and the frames discarded since
	// (duplicates, stale epochs). FaultError carries both so a crash
	// verdict can say where this rank last made progress.
	progressT float64
	discards  int

	// Send completion (lease.go): the Run's lease tables, indexed by
	// rank, and the leases of the payloads delivered to this rank
	// since its last ReleaseRecv.
	leases []leaseTable
	held   []heldLease
	// recv is alltoallv's per-source result, allocated on first use and
	// overwritten by the next call.
	recv [][]byte
}

// Run starts one rank body per simulated GPU and returns the netsim
// result (virtual completion time, per-rank clocks, traffic stats).
func Run(cfg netsim.Config, body func(*Comm)) netsim.Result {
	return RunWith(cfg, nil, body)
}

// RunWith is Run with an observability recorder: each rank gets a
// per-rank span/metric handle (reachable via Comm.Obs), and the wire
// events of netsim's Tracer stream are recorded on the same timeline.
// A nil recorder makes RunWith identical to Run, with zero overhead.
func RunWith(cfg netsim.Config, rec *obs.Recorder, body func(*Comm)) netsim.Result {
	res, err := runWith(cfg, rec, body, false)
	if err != nil {
		panic(err) // unreachable: unchecked mode panics at the source
	}
	return res
}

// RunChecked is Run for fault-plan configs: rank failures (typed
// *FaultError diagnostics from the reliable runtime, or any panic) and
// deadlocks terminate the run and come back as a *netsim.RunError
// instead of aborting the process.
func RunChecked(cfg netsim.Config, body func(*Comm)) (netsim.Result, error) {
	return runWith(cfg, nil, body, true)
}

// RunWithChecked is RunChecked with an observability recorder.
func RunWithChecked(cfg netsim.Config, rec *obs.Recorder, body func(*Comm)) (netsim.Result, error) {
	return runWith(cfg, rec, body, true)
}

func runWith(cfg netsim.Config, rec *obs.Recorder, body func(*Comm), check bool) (netsim.Result, error) {
	rec.SetMachine(obs.Machine{
		Nodes: cfg.Nodes, GPUsPerNode: cfg.GPUsPerNode,
		InterBW: cfg.InterBW, IntraBW: cfg.IntraBW, LocalBW: cfg.LocalBW,
	})
	if rec.Tracing() {
		prev := cfg.Tracer
		cfg.Tracer = func(ev netsim.TraceEvent) {
			if prev != nil {
				prev(ev)
			}
			rec.Wire(obs.WireEvent{
				Src: ev.Src, Dst: ev.Dst, Tag: ev.Tag, Bytes: ev.Bytes,
				Kind: ev.Kind, SrcNode: ev.SrcNode, DstNode: ev.DstNode,
				Injected: ev.Injected, End: ev.End, Arrival: ev.Arrival,
				Start: ev.Start, Ser: ev.Ser,
			})
		}
	}
	if log := rec.EventLog(); log != nil {
		// Mirror injected faults into the live event stream. Like the
		// Tracer, the observer runs serialized, in processing order, on
		// whichever goroutine holds the engine's baton, so event order
		// is deterministic and emission never touches virtual time.
		prev := cfg.FaultObserver
		cfg.FaultObserver = func(fe netsim.FaultEvent) {
			if prev != nil {
				prev(fe)
			}
			log.Emit(obs.Event{
				T: fe.T, Rank: fe.Src, Kind: obs.EventFault,
				Label: fe.Kind, Peer: fe.Dst, Value: fe.Delay,
			})
		}
	}
	leases := make([]leaseTable, cfg.Ranks())
	mk := func(p *netsim.Proc) *Comm {
		c := &Comm{
			p:              p,
			obs:            rec.Rank(p.Rank()),
			eagerThreshold: DefaultEagerThreshold,
			winCreateCost:  50e-6,
			leases:         leases,
		}
		if cfg.Faults != nil {
			c.reliable = true
			c.retry = cfg.Faults.Retry.WithDefaults()
			c.sendSeq = make(map[seqKey]uint32)
			c.recvSeq = make(map[seqKey]uint32)
		}
		return c
	}
	var res netsim.Result
	var err error
	if check {
		res, err = netsim.RunChecked(cfg, func(p *netsim.Proc) { body(mk(p)) })
	} else {
		res = netsim.Run(cfg, func(p *netsim.Proc) { body(mk(p)) })
	}
	recordFaultStats(rec, res.Stats.Faults)
	return res, err
}

// recordFaultStats surfaces the run's fault/recovery counters through
// the metrics registry so reports and bench artifacts can flag runs
// whose numbers were earned under degradation.
func recordFaultStats(rec *obs.Recorder, f netsim.FaultStats) {
	if rec == nil || f == (netsim.FaultStats{}) {
		return
	}
	m := rec.Metrics()
	m.Add("fault/drops", int64(f.Drops))
	m.Add("fault/detected_corrupt", int64(f.DetectedCorrupt))
	m.Add("fault/silent_corrupt", int64(f.SilentCorrupt))
	m.Add("fault/duplicates", int64(f.Duplicates))
	m.Add("fault/spikes", int64(f.Spikes))
	m.Add("fault/stalls", int64(f.Stalls))
	m.Add("fault/retries", int64(f.Retries))
	m.Add("fault/lost", int64(f.Lost))
	m.Add("fault/crashes", int64(f.Crashes))
	m.Set("fault/retry_delay_s", f.RetryDelayS)
}

// Obs returns this rank's observability handle (nil, and safe to use,
// when no recorder is attached).
func (c *Comm) Obs() *obs.Rank { return c.obs }

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.p.Rank() }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return c.p.Size() }

// Node returns the node hosting the calling rank.
func (c *Comm) Node() int { return c.p.Node() }

// NodeOf returns the node hosting a rank.
func (c *Comm) NodeOf(rank int) int { return c.p.Config().NodeOf(rank) }

// Config returns the machine description.
func (c *Comm) Config() netsim.Config { return c.p.Config() }

// Now returns the rank's virtual clock.
func (c *Comm) Now() float64 { return c.p.Now() }

// Elapse charges d seconds of local work to the rank's clock.
func (c *Comm) Elapse(d float64) { c.p.Elapse(d) }

// AdvanceTo raises the rank's clock to at least t.
func (c *Comm) AdvanceTo(t float64) { c.p.AdvanceTo(t) }

// CountFlush attributes one put-throttling flush wait to the run's
// Stats (used by the one-sided exchange when it bounds outstanding
// puts).
func (c *Comm) CountFlush() { c.p.CountFlush() }

// SetEagerThreshold overrides the eager/rendezvous switch point.
func (c *Comm) SetEagerThreshold(bytes int) { c.eagerThreshold = bytes }

// rendezvousCost returns the two-sided protocol surcharges of a message
// of size n to dst: extra arrival latency (the RTS/CTS round trip) and
// per-message path occupancy (protocol progression on the NIC/bus),
// both zero below the eager threshold.
func (c *Comm) rendezvousCost(dst, n int) (extraLatency, protoOverhead float64) {
	if n <= c.eagerThreshold {
		return 0, 0
	}
	cfg := c.p.Config()
	if c.NodeOf(dst) == c.Node() {
		return 2 * cfg.IntraLatency, cfg.ProtoOverheadIntra
	}
	return 2 * cfg.InterLatency, cfg.ProtoOverheadInter
}

func checkUserTag(tag int) {
	if tag < 0 || tag >= tagUserLimit {
		panic(fmt.Sprintf("mpi: user tag %d out of range", tag))
	}
}

// Send transmits data to dst with the given tag. Eager messages are
// buffered (the caller may reuse data immediately); rendezvous messages
// hand the slice over zero-copy and pay the handshake surcharge. Send
// returns at injection time, as a buffered MPI_Send would.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.SendLogical(dst, tag, data, len(data))
}

// SendLogical is Send charging logical wire bytes for the message
// instead of len(data): the scaled-volume mode (see DESIGN.md), the
// two-sided analogue of the one-sided window's Logical size function.
// logical == len(data) is exactly Send, and nil data is a phantom
// message of logical bytes, timed like a real one.
func (c *Comm) SendLogical(dst, tag int, data []byte, logical int) {
	checkUserTag(tag)
	if c.reliable {
		payload := frame(c.nextSendSeq(dst, tag), data)
		lat, proto := c.rendezvousCost(dst, logical)
		c.p.SendMsg(dst, tag, netsim.SendOpts{Payload: payload, Bytes: logical + frameHdr, ExtraLatency: lat, ProtoOverhead: proto})
		return
	}
	payload := data
	if logical <= c.eagerThreshold {
		payload = append([]byte(nil), data...)
	}
	lat, proto := c.rendezvousCost(dst, logical)
	c.p.SendMsg(dst, tag, netsim.SendOpts{Payload: payload, Bytes: logical, ExtraLatency: lat, ProtoOverhead: proto})
}

// Recv blocks until the message from src with the given tag arrives and
// returns its payload (nil for phantom messages). In reliable mode it
// verifies the frame, drops duplicates, and raises a *FaultError on a
// watchdog timeout, a lost message, or corruption.
func (c *Comm) Recv(src, tag int) []byte {
	checkUserTag(tag)
	if c.reliable {
		return c.recvReliable(src, tag).Payload
	}
	return c.p.Recv(src, tag).Payload
}

// RecvPacket is Recv exposing the full packet metadata.
func (c *Comm) RecvPacket(src, tag int) netsim.Packet {
	checkUserTag(tag)
	if c.reliable {
		return c.recvReliable(src, tag)
	}
	return c.p.Recv(src, tag)
}

// internal send/recv on protocol tags (no user-tag check). Internal
// tags are fresh per collective epoch, so duplicates are harmless
// leftovers and no sequence framing is needed; reliable mode only adds
// the watchdog deadline that turns a lost message or crashed peer into
// a diagnostic instead of a hang.
func (c *Comm) sendInternal(dst, tag int, data []byte, n int) {
	c.p.SendDelayed(dst, tag, data, n, 0)
}

func (c *Comm) recvInternal(src, tag int) netsim.Packet {
	if c.reliable {
		pkt, ok := c.p.RecvDeadline(src, tag, c.deadline())
		if !ok {
			panic(c.noteFault(&FaultError{Rank: c.Rank(), Src: src, Tag: tag, Kind: "timeout", Op: "collective", When: c.p.Now()}))
		}
		c.noteProgress()
		return pkt
	}
	return c.p.Recv(src, tag)
}
