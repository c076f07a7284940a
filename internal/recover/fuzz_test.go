package recover_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	recov "repro/internal/recover"
)

// Fuzz suite for the checkpoint store's frame codec: arbitrary bytes must either decode to the exact
// framed payload or fail with a typed *FrameError — never panic, never
// silently load a damaged snapshot.

func FuzzSnapshotFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                    // shorter than the header
	f.Add(recov.Frame(nil))                   // valid empty snapshot
	f.Add(recov.Frame([]byte("pencil data"))) // valid payload
	long := recov.Frame(bytes.Repeat([]byte{0xab}, 256))
	f.Add(long)
	f.Add(long[:len(long)-3]) // truncated payload
	flipped := append([]byte(nil), long...)
	flipped[recov.FrameHdr+5] ^= 0x40
	f.Add(flipped) // bit flip in the payload
	badLen := append([]byte(nil), long...)
	binary.LittleEndian.PutUint32(badLen, 7)
	f.Add(badLen) // header length lies

	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := recov.Unframe(b)
		if err != nil {
			var fe *recov.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("unframe error is %T (%v), want *FrameError", err, err)
			}
			switch fe.Kind {
			case "truncated", "length", "checksum":
			default:
				t.Fatalf("unexpected FrameError kind %q", fe.Kind)
			}
			return
		}
		// Accepted: the frame must verify — length consistent and the
		// payload the exact framed bytes.
		if len(b) < recov.FrameHdr {
			t.Fatalf("accepted a %d-byte frame shorter than the header", len(b))
		}
		if got := int(binary.LittleEndian.Uint32(b)); got != len(snap) {
			t.Fatalf("accepted frame: header says %d bytes, payload has %d", got, len(snap))
		}
		if !bytes.Equal(snap, b[recov.FrameHdr:]) {
			t.Fatal("accepted frame returned different bytes than it holds")
		}
		// Round trip: re-framing the payload reproduces the input.
		if !bytes.Equal(recov.Frame(snap), b) {
			t.Fatal("re-framing an accepted payload did not reproduce the frame")
		}
	})
}

func FuzzSnapshotFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, snap []byte) {
		got, err := recov.Unframe(recov.Frame(snap))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !bytes.Equal(got, snap) {
			t.Fatalf("round trip changed the payload: %v -> %v", snap, got)
		}
	})
}
