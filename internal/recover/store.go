// Package recover implements epoch-checkpoint crash recovery for the
// simulated pipeline (docs/ROBUSTNESS.md). Every completed reshape is a
// globally consistent cut: ranks persist a CRC-framed snapshot of their
// pencil partition plus exchange-ledger state into an in-sim Store, a
// two-phase commit marker makes the cut atomic, and on a watchdog crash
// verdict a Controller rolls the run back to the last committed epoch
// and re-executes it deterministically (exponential backoff with seeded
// jitter, bounded restarts, typed unrecoverable diagnosis).
//
// The package name shadows the builtin recover at import sites; callers
// that also use the builtin import it under an alias (conventionally
// "recov").
package recover

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// frameHdr is the CRC frame overhead per snapshot: [len u32][crc u32].
const frameHdr = 8

// FrameError is the typed validation failure of a checkpoint frame:
// torn, truncated, or bit-flipped bytes must surface as one of these,
// never as a panic or a silently loaded snapshot. Kind is "truncated"
// (frame shorter than its header), "length" (stored length disagrees
// with the payload), or "checksum" (CRC mismatch).
type FrameError struct {
	Kind string
	Msg  string
}

func (e *FrameError) Error() string { return "recover: snapshot " + e.Msg }

// frame wraps a snapshot in the store's [len|crc|payload] frame.
func frame(snap []byte) []byte {
	out := make([]byte, frameHdr+len(snap))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(snap)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(snap))
	copy(out[frameHdr:], snap)
	return out
}

// unframe validates and unwraps a framed snapshot; every failure is a
// typed *FrameError.
func unframe(b []byte) ([]byte, error) {
	if len(b) < frameHdr {
		return nil, &FrameError{Kind: "truncated", Msg: fmt.Sprintf("frame truncated (%d bytes)", len(b))}
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if int(n) != len(b)-frameHdr {
		return nil, &FrameError{Kind: "length", Msg: fmt.Sprintf("length %d does not match frame payload %d", n, len(b)-frameHdr)}
	}
	want := binary.LittleEndian.Uint32(b[4:])
	if got := crc32.ChecksumIEEE(b[frameHdr:]); got != want {
		return nil, &FrameError{Kind: "checksum", Msg: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	return b[frameHdr:], nil
}

// Store is the seeded in-sim checkpoint target shared by every rank of
// a run (the stand-in for a burst buffer or node-local NVMe pool). It
// survives across restart attempts of one Controller run.
//
// Writes follow a two-phase protocol: each rank Saves its snapshot for
// an epoch, the ranks synchronize, and exactly one rank Commits the
// epoch. Until the commit the epoch is pending and a Rollback discards
// it, so a crash mid-checkpoint can never surface a torn cut — readers
// only ever see LastCommitted. Per-rank slots are disjoint, so the
// store's committed content is independent of the order ranks saved
// in. The lock orders accesses from the rank goroutines and from the
// controller, which Run calls from outside the simulation.
type Store struct {
	mu        sync.Mutex
	committed int                    // last committed epoch; -1 = none
	slots     map[int]map[int][]byte // epoch → rank → framed snapshot
}

// NewStore creates an empty checkpoint store.
func NewStore() *Store {
	return &Store{committed: -1, slots: map[int]map[int][]byte{}}
}

// Save writes rank's snapshot for an epoch (phase one of the commit
// protocol). Saves for epochs at or below the committed mark are
// ignored: a re-executed rank re-saving an already-durable epoch is
// idempotent, never destructive.
func (s *Store) Save(rank, epoch int, snap []byte) {
	framed := frame(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.committed {
		return
	}
	m := s.slots[epoch]
	if m == nil {
		m = map[int][]byte{}
		s.slots[epoch] = m
	}
	m[rank] = framed
}

// Commit atomically marks an epoch durable (phase two; call from one
// rank after all ranks saved and synchronized) and drops older epochs —
// rollback never needs anything before the newest committed cut.
func (s *Store) Commit(epoch int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.committed {
		return
	}
	s.committed = epoch
	for e := range s.slots {
		if e < epoch {
			delete(s.slots, e)
		}
	}
}

// LastCommitted returns the newest durable epoch (-1 when none).
func (s *Store) LastCommitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

// Restore returns rank's snapshot of a committed epoch, validating the
// CRC frame. Pending (uncommitted) epochs are invisible.
func (s *Store) Restore(rank, epoch int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.committed {
		return nil, fmt.Errorf("recover: epoch %d not committed (last committed %d)", epoch, s.committed)
	}
	framed := s.slots[epoch][rank]
	if framed == nil {
		return nil, fmt.Errorf("recover: no snapshot for rank %d at epoch %d", rank, epoch)
	}
	return unframe(framed)
}

// Rollback discards every pending epoch (phase-one saves that never
// committed), restoring the store to the last committed cut.
func (s *Store) Rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := range s.slots {
		if e > s.committed {
			delete(s.slots, e)
		}
	}
}
