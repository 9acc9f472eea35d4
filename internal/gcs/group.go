package gcs

import (
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// Group is a cross-channel atomic broadcast: one application message per
// endpoint, transmitted to every peer in a single parent-transport frame
// once all parts have reached the front of their endpoints' outboxes.
//
// Why it exists: a plain URBroadcast is asynchronous — the message sits in
// its endpoint's outbox until that endpoint's dispatcher drains it. Portions
// of one cross-shard commit submitted to S endpoints therefore leave the
// origin on S independent goroutines, and a crash between two drains tears
// the commit: one portion achieves uniform delivery, the sibling was never
// sent. The group closes that window with three properties:
//
//  1. All-or-nothing transmission — the initial send is ONE frame per peer
//     (transport.SendGroup), so every part exists at a peer or none does.
//  2. Sender-side injection — each part is placed directly into its own
//     channel's pending set (as if received), so the origin's retransmission,
//     non-sender relay, and view-change flush/resubmission machinery cover
//     all parts from the instant of transmission. There is no lost-loopback
//     hole: a part cannot be "sent to peers but unknown to self". The
//     origin's retransmissions of a part carry its siblings in the same
//     frame too: each endpoint retransmits on its own tick, so separate
//     resends after a lost first frame could hand a peer one part just
//     before the origin crashes with the other.
//  3. FIFO preservation — parts occupy ordinary outbox positions, so the
//     per-(writer, shard) sequence numbers stay monotone with respect to
//     earlier and later broadcasts on the same channel (the receivers'
//     frontier filter would silently drop an inversion as a stale duplicate).
//
// Mechanics: each part head-of-line-blocks its outbox (drainOutbox stops at
// it without popping). Whenever a dispatcher finds a group part at its head
// it calls tryComplete, which locks every involved endpoint in creation
// order, verifies all parts are at their heads with their endpoints healthy,
// and then — atomically under all the locks — pops the parts, assigns each
// its sequence number and vector clock, self-injects it, and collects the
// sends. The last endpoint to become ready completes the group. A group on
// an ejected endpoint can never complete; Fail drops the queued sibling
// parts so their outboxes unblock (the caller fails the commit waiter).
type Group struct {
	eps []*Endpoint // lock order: creation order (caller passes ascending shards)

	// failMu guards done and failed. Lock order: any endpoint mu before
	// failMu (tryComplete and the drainOutbox cancellation check both hold
	// an endpoint's mu when they take it; Fail holds none).
	failMu chMutex
	done   bool
	failed bool
}

// chMutex is a tiny channel-based mutex so Group needs no sync import churn.
type chMutex chan struct{}

func newChMutex() chMutex { m := make(chMutex, 1); return m }

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

// NewGroup creates a group over the given endpoints. The slice order is the
// lock order used by completion; callers must use one consistent order for
// all groups (ascending shard index).
func NewGroup(eps ...*Endpoint) *Group {
	return &Group{eps: eps, failMu: newChMutex()}
}

// Fail cancels a group that can no longer complete (a part's endpoint was
// ejected or a sibling submit failed). Queued parts are dropped the next
// time their dispatchers reach them; nothing has been transmitted, so the
// cancellation is clean all-or-nothing. Idempotent; a no-op after the group
// completed.
func (g *Group) Fail() {
	g.failMu.lock()
	if !g.done {
		g.failed = true
	}
	g.failMu.unlock()
	for _, e := range g.eps {
		e.kick()
	}
}

func (g *Group) canceled() bool {
	g.failMu.lock()
	c := g.failed
	g.failMu.unlock()
	return c
}

func (g *Group) finished() bool {
	g.failMu.lock()
	f := g.done || g.failed
	g.failMu.unlock()
	return f
}

// URBroadcastGroup submits body as this endpoint's part of group g. Like
// URBroadcast it is asynchronous; unlike it, transmission waits for the
// sibling parts. On error the caller must Fail the group: sibling parts
// already queued would otherwise block their outboxes forever.
func (e *Endpoint) URBroadcastGroup(g *Group, body any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return ErrStopped
	}
	if !e.inPrimary {
		return ErrNotPrimary
	}
	e.outbox = append(e.outbox, outMsg{kind: kindURB, body: body, group: g})
	e.kick()
	return nil
}

// tryComplete attempts the all-ready completion. Called without any endpoint
// lock held. Safe to call from any dispatcher, any number of times.
func (g *Group) tryComplete() {
	if g.finished() {
		return
	}
	for _, e := range g.eps {
		e.mu.Lock()
	}
	unlockAll := func() {
		for i := len(g.eps) - 1; i >= 0; i-- {
			g.eps[i].mu.Unlock()
		}
	}
	g.failMu.lock()
	if g.done || g.failed {
		g.failMu.unlock()
		unlockAll()
		return
	}
	for _, e := range g.eps {
		if e.stopped || e.blocked || e.joining || !e.inPrimary ||
			len(e.outbox) == 0 || e.outbox[0].group != g {
			// Not all parts ready (or an endpoint is mid-flush/ejected):
			// retry when that endpoint's dispatcher next kicks.
			g.failMu.unlock()
			unlockAll()
			return
		}
	}

	// All parts at their heads, all endpoints healthy: assign identities and
	// self-inject under the locks, transmit after releasing them. The frame
	// is complete before any lock is released, so retransmissions (under one
	// endpoint's lock) always see every part.
	frame := &groupFrame{}
	peers := make(map[transport.ID]bool)
	now := time.Now()
	for _, e := range g.eps {
		m := e.outbox[0]
		e.outbox = e.outbox[1:]
		vs := e.vs
		vs.mySeq++
		d := &urbData{
			View: e.view.ID,
			ID:   msgID{Sender: e.self, Seq: vs.mySeq},
			Kind: m.kind,
			VC:   vs.deliveredVector(),
			Body: m.body,
		}
		vs.pending[d.ID] = &pendingMsg{data: d, sentAt: now, frame: frame}
		vs.ackSet(d.ID)[e.self] = true
		e.ackBatch = append(e.ackBatch, d.ID)
		e.tryDeliverLocked()
		frame.trs = append(frame.trs, e.tr)
		frame.parts = append(frame.parts, d)
		// The peer set is the union of the parts' view memberships (they
		// agree outside view-change windows); a part sent to a peer outside
		// its own view is dropped there by the stale-view check, exactly
		// like any late unicast.
		for _, m := range e.view.Members {
			if m != e.self {
				peers[m] = true
			}
		}
	}
	g.done = true
	g.failMu.unlock()
	unlockAll()

	for p := range peers {
		_ = frame.send(p, nil, nil)
	}
	for _, e := range g.eps {
		e.kick() // flush the self-acks, run any ready upcalls
	}
}

// groupFrame is every part of one completed group, with the transport each
// part travels on: the unit the origin (re)transmits to a peer.
type groupFrame struct {
	trs   []transport.Transport
	parts []*urbData
}

// send transmits all parts to one peer in a single frame, with part old
// replaced by its retransmission copy cur (nil: send the parts as they are).
func (f *groupFrame) send(to transport.ID, old, cur *urbData) error {
	payloads := make([]any, len(f.parts))
	for i, d := range f.parts {
		if d == old {
			payloads[i] = cur
		} else {
			payloads[i] = d
		}
	}
	return transport.SendGroup(to, f.trs, payloads)
}
