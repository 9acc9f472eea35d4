package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// TestCommitSeqsLeaveInAllocationOrder forces two local committers into the
// order that used to lose a write: the first allocates Seq n and stalls in
// the allocation hook while the second allocates n+1 and commits. Every
// receiver's per-writer frontier then stood at n+1 and silently dropped n.
// Allocation and enqueue now form one critical section, so the second
// committer waits for the first (the hook gives up after a bound and lets it
// go) and both writes reach every replica.
func TestCommitSeqsLeaveInAllocationOrder(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	ids := []transport.ID{0, 1, 2}
	gcsCfg := gcs.Config{
		Members:           ids,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      500 * time.Millisecond,
		FlushTimeout:      500 * time.Millisecond,
		RetransmitAfter:   60 * time.Millisecond,
		Tick:              5 * time.Millisecond,
	}
	reps := make([]*Replica, len(ids))
	for i, id := range ids {
		tr, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(tr, Config{Protocol: ProtocolALC}, gcsCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reps[i] = r
	}
	write := func(box string) func(*stm.Txn) error {
		return func(tx *stm.Txn) error { return tx.Write(box, 1) }
	}

	firstIn := make(chan struct{})
	secondDone := make(chan struct{})
	var calls atomic.Int32
	txnIDHook = func(stm.TxnID) {
		if calls.Add(1) != 1 {
			return
		}
		close(firstIn)
		select {
		case <-secondDone:
		case <-time.After(300 * time.Millisecond):
		}
	}
	defer func() { txnIDHook = nil }()

	errs := make(chan error, 2)
	go func() { errs <- reps[0].Atomic(write("a")) }()
	<-firstIn
	go func() {
		errs <- reps[0].Atomic(write("b"))
		close(secondDone)
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("commit: %v", err)
		}
	}

	for _, r := range reps {
		for _, box := range []string{"a", "b"} {
			deadline := time.Now().Add(3 * time.Second)
			for {
				err := r.AtomicRO(func(tx *stm.Txn) error { _, err := tx.Read(box); return err })
				if err == nil {
					break
				}
				if !errors.Is(err, stm.ErrNoSuchBox) || time.Now().After(deadline) {
					t.Fatalf("replica %d: box %q: %v (write lost)", r.ID(), box, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}
