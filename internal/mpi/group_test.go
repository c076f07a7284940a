package mpi

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
)

// The group tests exercise the ULFM-style shrink: survivors agree on
// the reduced membership and continue on a sub-communicator with dense
// local ranks, translated wire ranks, and a fresh tag generation.

// shrunken runs body on the 6-rank Summit node with rank `dead` absent
// (it returns immediately, as a permanently lost rank would) and every
// survivor shrunken onto the remaining five.
func shrunken(t *testing.T, dead int, body func(*Comm)) netsim.Result {
	t.Helper()
	return Run(cfgN(6), func(c *Comm) {
		if c.Rank() == dead {
			return
		}
		sc := c.Shrink([]int{dead})
		body(sc)
	})
}

func TestShrinkMembershipAndTranslation(t *testing.T) {
	shrunken(t, 3, func(sc *Comm) {
		if sc.Size() != 5 {
			t.Errorf("shrunken size %d, want 5", sc.Size())
		}
		if sc.p.Size() != 6 {
			t.Errorf("world size %d, want 6", sc.p.Size())
		}
		if sc.gen != 1 {
			t.Errorf("generation %d, want 1", sc.gen)
		}
		want := []int{0, 1, 2, 4, 5}
		if !reflect.DeepEqual(sc.group, want) {
			t.Errorf("group %v, want %v", sc.group, want)
		}
		// Local ranks are dense in ascending global order; the dead rank's
		// slot is closed up.
		g := sc.GlobalRank()
		if want[sc.Rank()] != g {
			t.Errorf("local rank %d maps to global %d, want %d", sc.Rank(), want[sc.Rank()], g)
		}
		// Node placement follows the global rank (6 GPUs per node).
		if got := sc.NodeOf(sc.Rank()); got != want[sc.Rank()]/6 {
			t.Errorf("NodeOf(%d) = %d, want %d", sc.Rank(), got, want[sc.Rank()]/6)
		}
	})
}

func TestShrinkPointToPointAndCollectives(t *testing.T) {
	shrunken(t, 2, func(sc *Comm) {
		p := sc.Size()
		me := sc.Rank()
		// Ring exchange on local ranks: the wire translation must route
		// around the dead global rank transparently.
		next, prev := (me+1)%p, (me-1+p)%p
		sc.Send(next, 5, []byte{byte(sc.GlobalRank())})
		got := sc.Recv(prev, 5)
		wantG := sc.group[prev]
		if len(got) != 1 || int(got[0]) != wantG {
			t.Errorf("rank %d got %v from local %d, want global %d", me, got, prev, wantG)
		}
		// Collectives run over the survivor group only.
		sum := sc.AllreduceFloat64("sum", float64(sc.GlobalRank()))
		if sum != 0+1+3+4+5 {
			t.Errorf("allreduce sum %v, want 13", sum)
		}
		sc.Barrier()
	})
}

func TestShrinkWindowsExchange(t *testing.T) {
	shrunken(t, 4, func(sc *Comm) {
		p := sc.Size()
		me := sc.Rank()
		buf := make([]byte, p)
		win := sc.WinCreate(buf)
		for dst := 0; dst < p; dst++ {
			win.Put(dst, me, []byte{byte(10 + me)})
		}
		expected := make([]int, p)
		for i := range expected {
			expected[i] = 1
		}
		win.Fence(expected)
		for src := 0; src < p; src++ {
			if buf[src] != byte(10+src) {
				t.Errorf("rank %d window slot %d = %d, want %d", me, src, buf[src], 10+src)
			}
		}
	})
}

func TestShrinkDeterministicAcrossEngines(t *testing.T) {
	run := func(parallel bool) netsim.Result {
		cfg := cfgN(6)
		cfg.Parallel = parallel
		return Run(cfg, func(c *Comm) {
			if c.Rank() == 1 {
				return
			}
			sc := c.Shrink([]int{1})
			sc.Barrier()
			sc.AllreduceFloat64("max", float64(sc.GlobalRank()))
			sc.Barrier()
		})
	}
	seq := run(false)
	par := run(true)
	if seq.Time != par.Time || !reflect.DeepEqual(seq.Clocks, par.Clocks) {
		t.Errorf("shrunken run diverged across engines:\n%+v\n%+v", seq, par)
	}
}

func TestShrinkAgreementUnionsSuspects(t *testing.T) {
	// Every survivor must present the same dead set (the controller
	// guarantees it); the agreement round then converges without growth
	// and yields identical groups everywhere.
	shrunken(t, 5, func(sc *Comm) {
		want := []int{0, 1, 2, 3, 4}
		if !reflect.DeepEqual(sc.group, want) {
			t.Errorf("agreed group %v, want %v", sc.group, want)
		}
	})
}

func TestShrinkTwice(t *testing.T) {
	// A second shrink on the sub-communicator composes: generation 2,
	// membership down to four, traffic still consistent.
	Run(cfgN(6), func(c *Comm) {
		if c.Rank() == 0 {
			return
		}
		sc := c.Shrink([]int{0})
		if sc.GlobalRank() == 3 {
			return
		}
		sc2 := sc.Shrink([]int{3})
		if sc2.gen != 2 || sc2.Size() != 4 {
			t.Errorf("second shrink: gen %d size %d, want 2 and 4", sc2.gen, sc2.Size())
		}
		want := []int{1, 2, 4, 5}
		if !reflect.DeepEqual(sc2.group, want) {
			t.Errorf("second shrink group %v, want %v", sc2.group, want)
		}
		sum := sc2.AllreduceFloat64("sum", float64(sc2.GlobalRank()))
		if sum != 1+2+4+5 {
			t.Errorf("allreduce on generation 2 sum %v, want 12", sum)
		}
	})
}
