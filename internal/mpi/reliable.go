package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Reliable mode activates automatically when the machine config carries
// a fault plan (netsim.Config.Faults != nil). It wraps the runtime's
// traffic in end-to-end integrity protocol the way a production MPI
// sits on a reliable transport:
//
//   - two-sided user-tag messages carry a [seq u32][crc u32] frame:
//     sequence numbers discard duplicate deliveries and turn a
//     permanently lost message into a typed *FaultError instead of a
//     FIFO shift that silently reorders every later message;
//   - one-sided puts carry an [epoch u32][idx u32][crc u32] frame so a
//     fence can drain exactly the puts of its own epoch (stale
//     duplicates are skipped) and verify each payload's checksum —
//     the defense against GPU-direct RDMA bypassing the CPU's
//     checksummed protocol stack;
//   - every internal receive gets a virtual-time watchdog deadline
//     (RetryPolicy.OpDeadline), converting a hang on a lost message or
//     crashed peer into a *FaultError diagnostic.
//
// Without a fault plan none of this exists: the comm takes the exact
// pre-fault code paths, keeping fault-free virtual times byte-identical.

// frameHdr is the two-sided reliable frame: [seq u32][crc u32].
const frameHdr = 8

// putHdr is the one-sided put frame: [epoch u32][idx u32][crc u32].
const putHdr = 12

var crcTab = crc32.IEEETable

// FaultError is the typed diagnostic the reliable runtime raises when a
// fault survives transport-level recovery: a receive deadline expiring
// (peer crashed or message permanently lost), a sequence gap (lost
// message detected by its successor), or a checksum mismatch.
type FaultError struct {
	Rank int     // rank that detected the fault
	Src  int     // peer the failed operation was waiting on
	Tag  int     // netsim tag of the operation
	Kind string  // "timeout", "lost", or "corrupt"
	Op   string  // "recv", "collective", or "fence"
	When float64 // virtual time of detection

	// Crash-forensics detail (docs/ROBUSTNESS.md): the virtual time of
	// this rank's last completed reliable operation before the fault (0
	// when it never made progress), the peers the failed operation was
	// still owed data from, and the delivery attempts consumed while
	// waiting (duplicate or stale frames discarded since last progress).
	// Recovery reports use these to say where a run died, not just that
	// it died.
	LastProgress float64
	Outstanding  []int
	Retries      int
}

func (e *FaultError) Error() string {
	s := fmt.Sprintf("mpi: rank %d %s %s from rank %d (tag %d) at t=%.3gs",
		e.Rank, e.Op, e.Kind, e.Src, e.Tag, e.When)
	if e.LastProgress > 0 || len(e.Outstanding) > 1 || e.Retries > 0 {
		s += fmt.Sprintf(" [last progress t=%.3gs, outstanding peers %v, %d frames discarded]",
			e.LastProgress, e.Outstanding, e.Retries)
	}
	return s
}

// noteFault stamps the error with the rank's progress forensics, emits
// the detection into the live event stream (when one is attached), and
// returns the error for the caller to panic with. Label is the fault
// kind prefixed with "detected_" to keep it distinct from the
// injection-side events the engine's FaultObserver emits.
func (c *Comm) noteFault(e *FaultError) *FaultError {
	e.LastProgress = c.progressT
	e.Retries = c.discards
	if e.Outstanding == nil && e.Src >= 0 {
		e.Outstanding = []int{e.Src}
	}
	c.obs.Emit(obs.Event{
		T: e.When, Kind: obs.EventFault, Label: "detected_" + e.Kind,
		Peer: e.Src, Msg: e.Op,
	})
	return e
}

// noteProgress records a completed reliable operation: the watchdog
// forensics baseline advances and the discard tally resets. Called only
// on reliable paths, so fault-free runs never touch the fields.
func (c *Comm) noteProgress() {
	c.progressT = c.p.Now()
	c.discards = 0
}

// frame wraps data in the two-sided reliable header. The checksum
// covers the sequence number AND the payload: a burst that flips only
// header bytes must fail validation, not smuggle in a wrong sequence
// number over an intact payload. It always copies, which doubles as the
// eager buffering the plain path does for small messages.
func frame(seq uint32, data []byte) []byte {
	buf := make([]byte, frameHdr+len(data))
	binary.LittleEndian.PutUint32(buf[0:], seq)
	copy(buf[frameHdr:], data)
	crc := crc32.Update(crc32.Checksum(buf[:4], crcTab), crcTab, data)
	binary.LittleEndian.PutUint32(buf[4:], crc)
	return buf
}

// deframe validates a two-sided frame; ok is false for truncated input
// or a checksum mismatch. The returned data aliases buf.
func deframe(buf []byte) (seq uint32, data []byte, ok bool) {
	if len(buf) < frameHdr {
		return 0, nil, false
	}
	seq = binary.LittleEndian.Uint32(buf[0:])
	want := binary.LittleEndian.Uint32(buf[4:])
	data = buf[frameHdr:]
	if crc32.Update(crc32.Checksum(buf[:4], crcTab), crcTab, data) != want {
		return 0, nil, false
	}
	if len(data) == 0 {
		data = nil // phantom parity with the plain path
	}
	return seq, data, true
}

// putFrame wraps a put payload in the one-sided header. As with frame,
// the checksum covers epoch and index too: a corrupted epoch over an
// intact payload would otherwise validate and be skipped as a "stale
// duplicate", turning one flipped bit into a fence that waits out its
// whole watchdog deadline.
func putFrame(epoch, idx uint32, data []byte) []byte {
	buf := make([]byte, putHdr+len(data))
	binary.LittleEndian.PutUint32(buf[0:], epoch)
	binary.LittleEndian.PutUint32(buf[4:], idx)
	copy(buf[putHdr:], data)
	crc := crc32.Update(crc32.Checksum(buf[:8], crcTab), crcTab, data)
	binary.LittleEndian.PutUint32(buf[8:], crc)
	return buf
}

// deframePut validates a one-sided frame; ok is false for truncated
// input or a checksum mismatch (in which case epoch and idx are
// untrustworthy too).
func deframePut(buf []byte) (epoch, idx uint32, data []byte, ok bool) {
	if len(buf) < putHdr {
		return 0, 0, nil, false
	}
	epoch = binary.LittleEndian.Uint32(buf[0:])
	idx = binary.LittleEndian.Uint32(buf[4:])
	want := binary.LittleEndian.Uint32(buf[8:])
	data = buf[putHdr:]
	if crc32.Update(crc32.Checksum(buf[:8], crcTab), crcTab, data) != want {
		return 0, 0, nil, false
	}
	if len(data) == 0 {
		data = nil
	}
	return epoch, idx, data, true
}

type seqKey struct{ peer, tag int }

// Reliable reports whether the comm runs in reliable mode (a fault plan
// is attached to the machine).
func (c *Comm) Reliable() bool { return c.reliable }

// nextSendSeq returns and advances the send sequence number toward
// (dst, tag).
func (c *Comm) nextSendSeq(dst, tag int) uint32 {
	k := seqKey{dst, tag}
	s := c.sendSeq[k]
	c.sendSeq[k] = s + 1
	return s
}

// deadline returns the watchdog deadline for a receive posted now.
func (c *Comm) deadline() float64 {
	return c.p.Now() + c.retry.OpDeadline
}

// recvReliable is the reliable-mode receive of one framed two-sided
// message: it discards duplicates, verifies the checksum, and raises a
// *FaultError on a deadline expiry, a sequence gap (the wanted message
// was permanently lost), or corruption.
func (c *Comm) recvReliable(src, tag int) netsim.Packet {
	k := seqKey{src, tag}
	want := c.recvSeq[k]
	deadline := c.deadline()
	for {
		pkt, ok := c.p.RecvDeadline(src, tag, deadline)
		if !ok {
			panic(c.noteFault(&FaultError{Rank: c.Rank(), Src: src, Tag: tag, Kind: "timeout", Op: "recv", When: c.p.Now()}))
		}
		seq, data, ok := deframe(pkt.Payload)
		if !ok {
			panic(c.noteFault(&FaultError{Rank: c.Rank(), Src: src, Tag: tag, Kind: "corrupt", Op: "recv", When: c.p.Now()}))
		}
		if seq < want {
			c.discards++
			continue // duplicate delivery of an already-consumed message
		}
		if seq > want {
			panic(c.noteFault(&FaultError{Rank: c.Rank(), Src: src, Tag: tag, Kind: "lost", Op: "recv", When: c.p.Now()}))
		}
		c.recvSeq[k] = want + 1
		c.noteProgress()
		pkt.Payload = data
		return pkt
	}
}
