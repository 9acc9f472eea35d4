package lease

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/alcstm/alc/internal/randseed"
	"github.com/alcstm/alc/internal/transport"
)

// sinkBroadcaster captures a manager's broadcasts without delivering them;
// the test decides when (and whether) they come back.
type sinkBroadcaster struct {
	freed []*Freed
}

func (b *sinkBroadcaster) OABroadcast(body any) error { return nil }

func (b *sinkBroadcaster) URBroadcast(body any) error {
	if f, ok := body.(*Freed); ok {
		b.freed = append(b.freed, f)
	}
	return nil
}

// bruteBlockedByWildcard is the unindexed wildcard-precedence scan over every
// request in the table.
func bruteBlockedByWildcard(m *Manager, st *reqState) bool {
	for _, other := range m.reqs {
		if other == st || other.freed || !other.enqueued || !other.req.Wildcard {
			continue
		}
		if other.pos < st.pos {
			return true
		}
	}
	return false
}

func bruteEnabled(m *Manager, st *reqState) bool {
	if st.req.Wildcard {
		return m.wildcardEnabledLocked(st)
	}
	return st.enqueued && st.headCount == len(st.req.Classes) && !bruteBlockedByWildcard(m, st)
}

// bruteReusable reports whether any request in the table could serve a
// zero-communication reuse of classes.
func bruteReusable(m *Manager, classes []ConflictClass) bool {
	for _, st := range m.reqs {
		if st.local && st.enqueued && !st.blocked && !st.freed && !st.aborted &&
			(st.req.Wildcard || subset(classes, st.req.Classes)) && bruteEnabled(m, st) {
			return true
		}
	}
	return false
}

// TestLeaseIndexesMatchBruteForce drives one manager through a random mix of
// lease-table transitions — local and remote enqueues, optimistic blocking,
// releases (including early ones), reuse and finish, deadlock aborts,
// wildcard escalation with a piggybacked release, view-change purges and
// state installs — and after every step checks the indexed lookups against
// the full scans they replace: wildcard precedence for every request, reuse
// availability for random class sets (the empty set included), and the
// drained-release index covering every blocked local request.
func TestLeaseIndexesMatchBruteForce(t *testing.T) {
	root := randseed.Root()
	t.Logf("seed %d (ALC_SEED=%d reproduces)", root, root)
	rng := rand.New(rand.NewSource(randseed.Derive(root, t.Name())))

	const self, classesN, steps = transport.ID(0), 6, 4000
	mapper := Mapper{NumClasses: classesN}
	bc := &sinkBroadcaster{}
	m := NewManager(self, bc, Config{Mapper: mapper, OptimisticFree: true})

	items := func() []string {
		n := rng.Intn(3) // 0..2 items: the empty set is legal
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("i%d", rng.Intn(classesN)))
		}
		return out
	}
	var seq [3]uint64
	newReq := func(proc transport.ID, wild bool) *Request {
		seq[proc]++
		req := &Request{ID: RequestID{Proc: proc, Seq: seq[proc]}, Wildcard: wild}
		if !wild {
			req.Classes = mapper.Classes(append(items(), fmt.Sprintf("i%d", rng.Intn(classesN))))
		}
		return req
	}
	// pick returns a random request in the table matching keep, or nil.
	pick := func(keep func(*reqState) bool) *reqState {
		m.mu.Lock()
		defer m.mu.Unlock()
		var cands []*reqState
		for _, st := range m.reqs {
			if keep(st) {
				cands = append(cands, st)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		// Map order is random: sort so the pick is reproducible from the
		// seed.
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i].req.ID, cands[j].req.ID
			return a.Proc < b.Proc || (a.Proc == b.Proc && a.Seq < b.Seq)
		})
		return cands[rng.Intn(len(cands))]
	}
	var held []RequestID // transactions associated through TryReuse

	check := func(step int, op string) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, st := range m.reqs {
			if got, want := m.blockedByWildcardLocked(st), bruteBlockedByWildcard(m, st); got != want {
				t.Fatalf("step %d (%s): blockedByWildcard(%v) = %t, brute force %t", step, op, st.req.ID, got, want)
			}
		}
		for k := 0; k < 4; k++ {
			var classes []ConflictClass
			if k > 0 {
				classes = mapper.Classes(items())
			}
			st := m.reusableLocked(classes)
			if want := bruteReusable(m, classes); (st != nil) != want {
				t.Fatalf("step %d (%s): reusable(%v) = %v, brute force %t", step, op, classes, st, want)
			}
			if st != nil && !(st.local && st.enqueued && !st.blocked && !st.freed && !st.aborted &&
				(st.req.Wildcard || subset(classes, st.req.Classes)) && bruteEnabled(m, st)) {
				t.Fatalf("step %d (%s): reusable(%v) returned unusable %v", step, op, classes, st.req.ID)
			}
		}
		indexed := make(map[*reqState]bool)
		for _, st := range m.liveLocked(&m.blockedLocal) {
			indexed[st] = true
		}
		for _, st := range m.reqs {
			if st.local && st.blocked && !st.freed && !indexed[st] {
				t.Fatalf("step %d (%s): blocked local %v missing from the release index", step, op, st.req.ID)
			}
		}
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 25:
			op = "remote TO"
			m.HandleRequestTO(newReq(transport.ID(1+rng.Intn(2)), rng.Intn(12) == 0))
		case r < 40:
			op = "local TO"
			m.HandleRequestTO(newReq(self, rng.Intn(15) == 0))
		case r < 45:
			op = "remote opt"
			m.HandleRequestOpt(newReq(1, false))
		case r < 60:
			op = "remote free"
			if st := pick(func(st *reqState) bool { return !st.local && !st.freed }); st != nil {
				m.HandleFreed(&Freed{IDs: []RequestID{st.req.ID}})
			} else {
				// A release overtaking its request.
				m.HandleFreed(&Freed{IDs: []RequestID{{Proc: 2, Seq: seq[2] + 1}}})
			}
		case r < 72:
			op = "reuse"
			if id, ok := m.TryReuse(items()); ok {
				held = append(held, id)
			}
		case r < 82:
			op = "finish"
			if len(held) > 0 {
				i := rng.Intn(len(held))
				m.Finished(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		case r < 86:
			op = "abort"
			// The deadlock detector's victim path.
			if st := pick(func(st *reqState) bool { return st.local && st.enqueued && !st.freed }); st != nil {
				m.mu.Lock()
				st.aborted = true
				st.freed = true
				m.dequeueLocked(st)
				m.afterChangeLocked()
				m.mu.Unlock()
			}
		case r < 91:
			op = "escalate"
			// GetLeaseEverything(old): reserve old's release, then the
			// wildcard's TO delivery frees it first.
			if st := pick(func(st *reqState) bool { return st.local && !st.freed && st.active == 1 }); st != nil {
				m.mu.Lock()
				st.active--
				m.blockLocked(st)
				st.replacePending = true
				m.mu.Unlock()
				for i, id := range held {
					if id == st.req.ID {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				req := newReq(self, true)
				req.FreeFirst = []RequestID{st.req.ID}
				m.HandleRequestTO(req)
			}
		case r < 94:
			op = "own releases"
			for _, f := range bc.freed {
				m.HandleFreed(f)
			}
			bc.freed = nil
		case r < 97:
			op = "view purge"
			m.HandleViewChange([]transport.ID{0, 1, 2}, []transport.ID{2})
		default:
			op = "install"
			m.InstallState(m.SnapshotState())
			held = nil
		}
		check(step, op)
	}
}

// TestTryReuseServesHeldWildcard checks the wildcard half of the reuse
// lookup: an enabled local wildcard serves any data set, including items no
// class queue has seen, and stops serving once a later request blocks it.
func TestTryReuseServesHeldWildcard(t *testing.T) {
	m := NewManager(0, &sinkBroadcaster{}, Config{})
	wild := &Request{ID: RequestID{Proc: 0, Seq: 1}, Wildcard: true}
	m.HandleRequestTO(wild)
	for _, items := range [][]string{{"a"}, {"a", "b"}, nil} {
		id, ok := m.TryReuse(items)
		if !ok || id != wild.ID {
			t.Fatalf("TryReuse(%v) = %v, %t; want the held wildcard", items, id, ok)
		}
		m.Finished(id)
	}
	m.HandleRequestTO(&Request{ID: RequestID{Proc: 1, Seq: 1}, Classes: m.cfg.Mapper.Classes([]string{"z"})})
	if id, ok := m.TryReuse([]string{"a"}); ok {
		t.Fatalf("TryReuse served %v from a blocked wildcard", id)
	}
}

// BenchmarkLeaseTryReuse measures the lease-retention fast path — TryReuse
// and Finished on an already-held lease — with many leases held at once: it
// should cost the same at 100 and 1,000 held leases.
func BenchmarkLeaseTryReuse(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("held=%d", n), func(b *testing.B) {
			m := NewManager(0, &sinkBroadcaster{}, Config{})
			sets := make([][]string, n)
			for i := range sets {
				sets[i] = []string{fmt.Sprintf("k%d", i)}
				m.HandleRequestTO(&Request{ID: RequestID{Proc: 0, Seq: uint64(i + 1)}, Classes: m.cfg.Mapper.Classes(sets[i])})
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				id, ok := m.TryReuse(sets[i%n])
				if !ok {
					b.Fatal("held lease not reusable")
				}
				m.Finished(id)
				i++
			}
		})
	}
}
