package gcs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/transport"
)

// TestURBAckTableDrains checks that the ack table empties once traffic stops:
// every member acks every message to every member, itself included, so acks
// keep arriving after a message turned stable and was pruned. Those late acks
// must not re-create entries that would then linger until gcAcksLocked
// expires them.
func TestURBAckTableDrains(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: 200 * time.Microsecond, Jitter: 200 * time.Microsecond})
	const perNode = 60
	for i := 0; i < perNode; i++ {
		for n, ep := range g.eps {
			var err error
			if i%2 == 0 {
				err = ep.URBroadcast(fmt.Sprintf("u%d-%d", n, i))
			} else {
				err = ep.OABroadcast(fmt.Sprintf("o%d-%d", n, i))
			}
			if err != nil {
				t.Fatalf("broadcast: %v", err)
			}
		}
	}
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 5*time.Second, fmt.Sprintf("deliveries at %d", i), func() bool {
			return len(rec.urSeq()) == 3*perNode/2 && len(rec.toSeq()) == 3*perNode/2
		})
	}
	for i, ep := range g.eps {
		ep := ep
		waitFor(t, 2*time.Second, fmt.Sprintf("empty ack table at %d", i), func() bool {
			q := ep.QueueStats()
			return q.URBAcks == 0 && q.URBRetained == 0 && q.URBPending == 0
		})
	}
}

// newIdleEndpoint builds an endpoint of a 3-member group whose dispatcher is
// never started, so a test can feed it messages by hand.
func newIdleEndpoint(t *testing.T) *Endpoint {
	t.Helper()
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	ids := []transport.ID{0, 1, 2}
	tr, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(tr, &recorder{}, testConfig(ids))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestURBEarlyAckCountsAndLateAckDropped feeds one message's acks around its
// data: an ack that arrives first must count toward the quorum, and an ack
// that arrives after the message was delivered and pruned as stable must be
// dropped rather than re-create an ack-table entry.
func TestURBEarlyAckCountsAndLateAckDropped(t *testing.T) {
	ep := newIdleEndpoint(t)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	vs := ep.vs
	id := msgID{Sender: 2, Seq: 1}

	// Member 1's ack overtakes the data.
	ep.handleAck(&urbAck{View: ep.view.ID, From: 1, IDs: []msgID{id}})
	if len(vs.acks) != 1 || vs.delivered[2] != 0 {
		t.Fatalf("early ack: acks=%d delivered=%d", len(vs.acks), vs.delivered[2])
	}
	// The data arrives: self-ack plus the early ack make the quorum of 2.
	ep.handleData(&urbData{View: ep.view.ID, ID: id, Kind: kindURB, Body: "m"})
	if vs.delivered[2] != 1 {
		t.Fatal("early ack did not count toward the quorum")
	}
	// The sender's own ack makes it stable: pruned.
	ep.handleAck(&urbAck{View: ep.view.ID, From: 2, IDs: []msgID{id}})
	if len(vs.acks) != 0 || len(vs.retained) != 0 {
		t.Fatalf("stable message not pruned: acks=%d retained=%d", len(vs.acks), len(vs.retained))
	}
	// Late acks (a re-ack, this endpoint's own loopback) carry nothing.
	ep.handleAck(&urbAck{View: ep.view.ID, From: 1, IDs: []msgID{id}})
	ep.handleAck(&urbAck{View: ep.view.ID, From: 0, IDs: []msgID{id}})
	if len(vs.acks) != 0 || len(vs.ackBorn) != 0 {
		t.Fatalf("late ack re-created an entry: acks=%d ackBorn=%d", len(vs.acks), len(vs.ackBorn))
	}
}

// recordingTransport is a parent transport that records every send and
// delivers nothing.
type recordingTransport struct {
	mu    sync.Mutex
	sent  []any
	inbox chan transport.Message
	done  chan struct{}
}

func (r *recordingTransport) Self() transport.ID { return 0 }
func (r *recordingTransport) Send(to transport.ID, payload any) error {
	r.mu.Lock()
	r.sent = append(r.sent, payload)
	r.mu.Unlock()
	return nil
}
func (r *recordingTransport) Inbox() <-chan transport.Message { return r.inbox }
func (r *recordingTransport) Done() <-chan struct{}           { return r.done }
func (r *recordingTransport) Close() error                    { return nil }

func (r *recordingTransport) take() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return out
}

// TestGroupRetransmitsPartsTogether checks that the origin resends a lost
// cross-channel group as a whole: when one endpoint's retransmission timer
// fires for its part, the sibling part travels in the same frame, so a peer
// can never hold one part of the group without the other.
func TestGroupRetransmitsPartsTogether(t *testing.T) {
	parent := &recordingTransport{inbox: make(chan transport.Message), done: make(chan struct{})}
	mux := transport.NewMux(parent, 2)
	defer mux.Close()
	ids := []transport.ID{0, 1, 2}
	var eps []*Endpoint
	for i := 0; i < 2; i++ {
		ep, err := NewEndpoint(mux.Sub(i), &recorder{}, testConfig(ids))
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	g := NewGroup(eps...)
	for i, ep := range eps {
		if err := ep.URBroadcastGroup(g, fmt.Sprintf("part%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	g.tryComplete()
	check := func(what string) {
		t.Helper()
		sent := parent.take()
		if len(sent) != 2 {
			t.Fatalf("%s: %d frames, want one per peer", what, len(sent))
		}
		for _, p := range sent {
			ge, ok := p.(*transport.GroupEnvelope)
			if !ok || len(ge.Envs) != 2 {
				t.Fatalf("%s: frame %T does not carry both parts", what, p)
			}
		}
	}
	check("first send")

	// Neither peer acknowledged: endpoint 0's timer fires first.
	ep := eps[0]
	ep.mu.Lock()
	ep.retransmitLocked(time.Now().Add(time.Hour))
	ep.mu.Unlock()
	check("retransmission")
}

// TestExcludedMemberLearnsOfItsExclusion cuts member 2 off long enough for
// the others to install a view without it, while 2 itself is too patient to
// suspect them. The ejectNotice sent at that install is lost in the
// partition, so after the heal member 2 hears live peers, never suspects
// anyone, and would wait in its old view as a primary member forever. The
// coordinator must repeat the notice when 2 beacons its stale view, so 2
// ejects itself and rejoins.
func TestExcludedMemberLearnsOfItsExclusion(t *testing.T) {
	net := memnet.New(memnet.Config{Latency: 200 * time.Microsecond})
	defer net.Close()
	ids := []transport.ID{0, 1, 2}
	var eps []*Endpoint
	var recs []*recorder
	for _, id := range ids {
		tr, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(ids)
		cfg.AutoRejoin = true
		if id == 2 {
			cfg.SuspectAfter = time.Hour
		}
		rec := &recorder{}
		ep, err := NewEndpoint(tr, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep.Start()
		defer ep.Close()
		eps = append(eps, ep)
		recs = append(recs, rec)
	}
	net.Partition([]transport.ID{2}, []transport.ID{0, 1})
	waitFor(t, 5*time.Second, "view without member 2", func() bool {
		v := eps[0].CurrentView()
		return v.ID > 1 && !v.Contains(2)
	})
	net.Heal()
	waitFor(t, 5*time.Second, "member 2 ejected", func() bool {
		recs[2].mu.Lock()
		defer recs[2].mu.Unlock()
		return recs[2].ejected > 0
	})
	waitFor(t, 5*time.Second, "member 2 readmitted", func() bool {
		v := eps[2].CurrentView()
		return eps[2].InPrimary() && v.Contains(2) && v.ID == eps[0].CurrentView().ID
	})
}
