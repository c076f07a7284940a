package recover

import (
	"bytes"
	"testing"
)

func TestStoreCommitAndRestore(t *testing.T) {
	st := NewStore()
	if st.LastCommitted() != -1 {
		t.Fatalf("fresh store committed %d, want -1", st.LastCommitted())
	}
	snapA := []byte("rank0 epoch1")
	snapB := []byte("rank1 epoch1")
	st.Save(0, 1, snapA)
	st.Save(1, 1, snapB)
	if _, err := st.Restore(0, 1); err == nil {
		t.Fatal("restore of an uncommitted epoch must fail (torn-cut protection)")
	}
	st.Commit(1)
	if st.LastCommitted() != 1 {
		t.Fatalf("committed %d, want 1", st.LastCommitted())
	}
	got, err := st.Restore(0, 1)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(got, snapA) {
		t.Fatalf("restore got %q, want %q", got, snapA)
	}
}

func TestStoreRollbackDropsPending(t *testing.T) {
	st := NewStore()
	st.Save(0, 1, []byte("one"))
	st.Commit(1)
	st.Save(0, 2, []byte("two")) // pending, never committed
	st.Rollback()
	if st.LastCommitted() != 1 {
		t.Fatalf("rollback moved the commit marker to %d", st.LastCommitted())
	}
	if _, err := st.Restore(0, 2); err == nil {
		t.Fatal("pending epoch survived rollback")
	}
	if got, err := st.Restore(0, 1); err != nil || !bytes.Equal(got, []byte("one")) {
		t.Fatalf("committed epoch lost by rollback: %q, %v", got, err)
	}
}

func TestStoreCommitDropsOlderEpochs(t *testing.T) {
	st := NewStore()
	st.Save(0, 1, []byte("one"))
	st.Commit(1)
	st.Save(0, 2, []byte("two"))
	st.Commit(2)
	if _, err := st.Restore(0, 1); err == nil {
		t.Fatal("superseded epoch retained after a newer commit")
	}
	if got, _ := st.Restore(0, 2); !bytes.Equal(got, []byte("two")) {
		t.Fatal("latest committed epoch unavailable")
	}
}

func TestStoreIgnoresStaleSavesAndCommits(t *testing.T) {
	st := NewStore()
	st.Save(0, 2, []byte("two"))
	st.Commit(2)
	st.Save(0, 1, []byte("stale")) // a replayed rank re-saving an old epoch
	st.Commit(1)
	if st.LastCommitted() != 2 {
		t.Fatalf("stale commit moved the marker to %d", st.LastCommitted())
	}
	if _, err := st.Restore(0, 1); err == nil {
		t.Fatal("stale save installed below the commit marker")
	}
}

func TestStoreDetectsCorruptFrame(t *testing.T) {
	st := NewStore()
	st.Save(0, 1, []byte("payload"))
	st.Commit(1)
	// Flip one payload bit behind the store's back.
	st.mu.Lock()
	st.slots[1][0][frameHdr] ^= 0x40
	st.mu.Unlock()
	if _, err := st.Restore(0, 1); err == nil {
		t.Fatal("corrupt snapshot passed CRC validation")
	}
}
