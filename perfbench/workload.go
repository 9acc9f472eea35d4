package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

// workload is one traffic mix. Only the shard count and the transport vary
// between workloads; every protocol setting is the shipped default.
type workload struct {
	name    string
	shards  int
	durable bool // tcpnet + WAL + client port, kv operations
	hot     bool // both clients transfer within one shared hot set
	why     string
}

var workloads = []workload{
	{name: "transfer-held", shards: 1,
		why: "each client owns an 8-account branch, so every commit reuses a held lease: the 2-step URB path"},
	{name: "transfer-contended", shards: 1, hot: true,
		why: "both clients share 16 hot accounts, so leases rotate through OAB and conflicts force re-execution"},
	{name: "transfer-cross", shards: 2,
		why: "transfer-held traffic at 2 shards: leases on both groups, and 4 in 7 write-sets cross shards in one mux frame"},
	{name: "kv-durable", shards: 1, durable: true,
		why: "Get/Inc through the client port over tcpnet with a WAL per node: wire, tcpnet, clientsrv and wal"},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	clients         = 2 // closed-loop clients, one each on replicas 0 and 1
	numKeys         = 1 << 16
	branchSize      = 8   // accounts per client branch (transfer-held, -cross)
	hotSetSize      = 16  // shared hot accounts (transfer-contended)
	kvKeysPerClient = 512 // keys each kv-durable client works on
)

// inputs is everything the seed determines: the seeded store and the keys
// each client works on.
type inputs struct {
	keys    []string
	initial []int
	sets    [clients][]int // key indices per client
}

func genInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{keys: make([]string, numKeys), initial: make([]int, numKeys)}
	for i := range in.keys {
		if w.durable {
			in.keys[i] = fmt.Sprintf("k%05d", i)
		} else {
			in.keys[i] = fmt.Sprintf("a%05d", i)
			in.initial[i] = 1000 + rng.Intn(1000)
		}
	}
	perm := rng.Perm(numKeys)
	for c := range in.sets {
		switch {
		case w.durable:
			in.sets[c] = perm[c*kvKeysPerClient : (c+1)*kvKeysPerClient]
		case w.hot:
			in.sets[c] = perm[:hotSetSize]
		}
	}
	if !w.durable && !w.hot {
		in.sets = branches(in.keys, perm)
	}
	return in
}

// branches gives each client a branch with half its accounts in each of the
// two shard groups transfer-cross splits the store into. Every seed then
// yields the same share of cross-shard transfers (a pair drawn from the
// branch spans both groups with probability 4/7). transfer-held uses the
// same accounts, so the two workloads differ only in the shard count.
func branches(keys []string, perm []int) (sets [clients][]int) {
	var pool [2][]int
	for _, k := range perm {
		sh := lease.ShardOf(lease.Mapper{}.ClassOf(keys[k]), 2)
		if len(pool[sh]) < clients*branchSize/2 {
			pool[sh] = append(pool[sh], k)
		}
	}
	for c := range sets {
		half := branchSize / 2
		sets[c] = append(append([]int(nil), pool[0][c*half:(c+1)*half]...), pool[1][c*half:(c+1)*half]...)
	}
	return sets
}

func (in *inputs) seedValues() map[string]stm.Value {
	m := make(map[string]stm.Value, len(in.keys))
	for i, k := range in.keys {
		m[k] = in.initial[i]
	}
	return m
}

// opRec is one client operation.
type opRec struct {
	end, dur int64 // ns since the run's origin; ns
	read, ok bool
}

// opTrace is what one client measured with tracing on.
type opTrace struct {
	updates, attempts    int64   // committed updates and the body attempts they took
	bodies               int64   // body spans
	bodyNs, atomicSelfNs int64   // body spans; Atomic minus its body spans
	commitNs             []int64 // end of the last body attempt to Atomic's return
	doNs, execNs         [2]int64
	doN                  [2]int64 // index 0: Get, 1: Inc
}

// client is one closed-loop client: it issues its next operation only after
// the previous one returned.
type client struct {
	id    int
	w     workload
	in    *inputs
	rng   *rand.Rand
	keys  []int
	delta map[int]int // acknowledged change per key
	// An update that returned an error may or may not have committed:
	// maybeUp / maybeDown count, per key, the units such updates could
	// have added or removed.
	maybeUp, maybeDown map[int]int
	origin             time.Time

	rep *core.Replica     // transfer workloads
	kv  *clientsrv.Client // kv-durable
	tr  *tracer
	cur *atomic.Uint64 // op in flight on this client's replica
	be  *tracedBackend // kv-durable, traced

	recs       []opRec
	seen       []int // transfer's read buffer
	mismatches int64
	firstBad   string // first online check mismatch
	firstErr   string // first operation error
	trace      opTrace
	seq        uint64
}

func newClient(id int, w workload, in *inputs, seed int64, origin time.Time, c *cluster, tr *tracer) *client {
	cl := &client{
		id: id, w: w, in: in, keys: in.sets[id],
		delta: make(map[int]int), maybeUp: make(map[int]int), maybeDown: make(map[int]int),
		rng:    rand.New(rand.NewSource(seed*7919 + int64(id) + 1)),
		origin: origin, rep: c.reps[id], tr: tr, cur: &c.inflight[id],
		recs: make([]opRec, 0, 1<<16), seen: make([]int, len(in.sets[id])),
	}
	if w.durable {
		cl.kv = clientsrv.Dial(clientsrv.ClientConfig{Addr: c.servers[id].Addr(), Conns: 1})
		if tr != nil {
			cl.be = c.backends[id]
		}
	}
	return cl
}

func (c *client) bad(format string, args ...any) {
	c.mismatches++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("client %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// warmDeadline bounds the warm-up; a run that cannot reach its steady state
// in that time is not measured.
const warmDeadline = 90 * time.Second

// warm brings the client to the workload's steady state. On kv-durable that
// is every one of its keys touched and its lease held by the client's node;
// keys whose lease the node lost (an ejection purges its leases) are touched
// again until all are held.
func (c *client) warm() error {
	if !c.w.durable {
		return nil
	}
	deadline := time.Now().Add(warmDeadline)
	cold := c.keys
	for len(cold) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("client %d: %d of %d leases still not held after %v of warm-up",
				c.id, len(cold), len(c.keys), warmDeadline)
		}
		for _, k := range cold {
			if !c.step(k, wire.OpInc) {
				time.Sleep(10 * time.Millisecond) // e.g. ejected: wait for the rejoin
			}
		}
		var next []int
		for _, k := range c.keys {
			if !c.rep.HoldsLease([]string{c.in.keys[k]}) {
				next = append(next, k)
			}
		}
		cold = next
	}
	return nil
}

// loop runs operations until stop is set. After a failed operation the
// client backs off briefly, as a caller facing an ejected replica would.
func (c *client) loop(stop *atomic.Bool) {
	for !stop.Load() {
		key, op := -1, wire.OpInc // transfer workloads: a transfer
		if c.w.durable {
			if c.rng.Intn(2) == 0 {
				op = wire.OpGet
			}
			key = c.keys[c.rng.Intn(len(c.keys))]
		}
		if !c.step(key, op) {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// inRange reports whether got is a value key may hold given the client's
// acknowledged changes and its updates of unknown outcome.
func (c *client) inRange(key, got int) bool {
	want := c.in.initial[key] + c.delta[key]
	return got >= want-c.maybeDown[key] && got <= want+c.maybeUp[key]
}

// step runs and records one operation: on kv-durable a Get or Inc of key,
// on the transfer workloads a transfer. It reports whether the operation
// succeeded.
func (c *client) step(key int, op wire.Op) bool {
	c.seq++
	id := uint64(c.id+1)<<48 | c.seq
	traced := c.tr != nil && c.tr.on.Load()
	if traced {
		c.cur.Store(id)
	}
	start := time.Now()
	var err error
	if c.w.durable {
		err = c.kvOp(id, key, op, traced)
	} else {
		err = c.transfer(id, traced)
	}
	end := time.Now()
	if traced {
		c.cur.Store(0)
	}
	if err != nil {
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("client %d: %v", c.id, err)
		}
	}
	c.recs = append(c.recs, opRec{
		end: int64(end.Sub(c.origin)), dur: int64(end.Sub(start)),
		read: op == wire.OpGet, ok: err == nil,
	})
	return err == nil
}

// transfer moves one unit between two of the client's accounts. On a branch
// it reads the whole branch first and, once committed, checks what it read:
// the client alone writes its branch, so the committed attempt must have
// read exactly what its acknowledged transfers left. On the hot set it reads
// only the pair.
func (c *client) transfer(id uint64, traced bool) error {
	i := c.rng.Intn(len(c.keys))
	j := c.rng.Intn(len(c.keys) - 1)
	if j >= i {
		j++
	}
	from, to := c.keys[i], c.keys[j]
	reads := c.keys
	if c.w.hot {
		reads = []int{from, to}
	}
	seen := c.seen[:len(reads)] // balances the last attempt read
	var attempts, bodyNs, lastBodyEnd int64
	var atomicStart int64
	if traced {
		atomicStart = c.tr.now()
	}
	err := c.rep.Atomic(func(tx *stm.Txn) error {
		var bs int64
		if traced {
			bs = c.tr.now()
			defer func() {
				lastBodyEnd = c.tr.now()
				attempts++
				bodyNs += lastBodyEnd - bs
				c.tr.record(span{op: id, kind: spanBody, start: bs, end: lastBodyEnd})
			}()
		}
		var fromBal, toBal int
		for i, k := range reads {
			v, err := tx.Read(c.in.keys[k])
			if err != nil {
				return err
			}
			seen[i] = v.(int)
			switch k {
			case from:
				fromBal = seen[i]
			case to:
				toBal = seen[i]
			}
		}
		if err := tx.Write(c.in.keys[from], fromBal-1); err != nil {
			return err
		}
		return tx.Write(c.in.keys[to], toBal+1)
	})
	if err == nil {
		for i, k := range reads {
			if !c.w.hot && !c.inRange(k, seen[i]) {
				c.bad("%s read %d, want %d", c.in.keys[k], seen[i], c.in.initial[k]+c.delta[k])
			}
		}
		c.delta[from]--
		c.delta[to]++
	} else {
		c.maybeDown[from]++
		c.maybeUp[to]++
	}
	if traced {
		end := c.tr.now()
		c.tr.record(span{op: id, kind: spanAtomic, start: atomicStart, end: end})
		c.trace.atomicSelfNs += end - atomicStart - bodyNs
		c.trace.bodyNs += bodyNs
		c.trace.bodies += attempts
		if err == nil {
			c.trace.updates++
			c.trace.attempts += attempts
			c.trace.commitNs = append(c.trace.commitNs, end-lastBodyEnd)
		}
	}
	return err
}

// kvOp sends one Get or Inc through the client port and checks the answer
// against the Incs this client has had acknowledged (it alone writes its
// keys, and a node applies a commit before acknowledging it).
func (c *client) kvOp(id uint64, key int, op wire.Op, traced bool) error {
	var arg int64
	if op == wire.OpInc {
		arg = 1
	}
	var start int64
	if traced {
		start = c.tr.now()
	}
	resp, err := c.kv.Do(op, c.in.keys[key], arg)
	if traced {
		end := c.tr.now()
		c.tr.record(span{op: id, kind: spanDo, start: start, end: end})
		k := 0
		if op == wire.OpInc {
			k = 1
		}
		c.trace.doNs[k] += end - start
		c.trace.execNs[k] += c.be.lastExec.Load()
		c.trace.doN[k]++
	}
	switch {
	case err == nil && resp.Status == wire.StatusOverloaded:
		return clientsrv.ErrOverloaded // refused unexecuted: counted as failed
	case err == nil && resp.Status != wire.StatusOK:
		err = fmt.Errorf("%v %s: status %d: %s", op, c.in.keys[key], resp.Status, resp.Err)
	}
	if err != nil {
		if op == wire.OpInc {
			c.maybeUp[key]++
		}
		return err
	}
	if op == wire.OpInc {
		c.delta[key]++
	}
	if !c.inRange(key, int(resp.Value)) {
		c.bad("%v %s returned %d, want %d", op, c.in.keys[key], resp.Value, c.delta[key])
	}
	return nil
}

// checkResult is the untimed end-of-run check.
type checkResult struct {
	lost     int64 // acknowledged updates missing on the worst replica
	problems []string
}

// check reads every key on every replica and compares it with the seeded
// value plus the acknowledged changes of both clients, allowing for the
// updates whose outcome is unknown. Transfers are unconditional moves of one
// unit, so the expected balance does not depend on the order they committed
// in.
func check(c *cluster, in *inputs, cls []*client) checkResult {
	var res checkResult
	lo := append([]int(nil), in.initial...)
	hi := append([]int(nil), in.initial...)
	for _, cl := range cls {
		for k, d := range cl.delta {
			lo[k] += d
			hi[k] += d
		}
		for k, d := range cl.maybeDown {
			lo[k] -= d
		}
		for k, d := range cl.maybeUp {
			hi[k] += d
		}
	}
	wantTotal := 0
	for _, v := range in.initial {
		wantTotal += v
	}
	var first []int
	for ri, r := range c.reps {
		got := make([]int, len(in.keys))
		err := r.AtomicRO(func(tx *stm.Txn) error {
			for i, k := range in.keys {
				v, err := tx.Read(k)
				if err != nil {
					return err
				}
				got[i] = v.(int)
			}
			return nil
		})
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("replica %d: read: %v", ri, err))
			continue
		}
		var wrong, missing, extra, total int
		for i := range got {
			total += got[i]
			switch {
			case got[i] < lo[i]:
				missing += lo[i] - got[i]
			case got[i] > hi[i]:
				extra += got[i] - hi[i]
			default:
				continue
			}
			wrong++
		}
		lost := int64(missing)
		if !c.durable() {
			lost = int64(missing+extra+1) / 2 // a lost transfer is off by one on two accounts
			if total != wantTotal {
				res.problems = append(res.problems, fmt.Sprintf("replica %d: total %d, want %d", ri, total, wantTotal))
			}
		}
		if wrong > 0 {
			res.problems = append(res.problems, fmt.Sprintf(
				"replica %d: %d keys differ from the acknowledged updates (%d units missing, %d extra)",
				ri, wrong, missing, extra))
		}
		if lost > res.lost {
			res.lost = lost
		}
		if first == nil {
			first = got
		} else {
			differ := 0
			for i := range got {
				if got[i] != first[i] {
					differ++
				}
			}
			if differ > 0 {
				res.problems = append(res.problems, fmt.Sprintf("replica %d differs from replica 0 on %d keys", ri, differ))
			}
		}
	}
	return res
}

func (c *cluster) durable() bool { return len(c.servers) > 0 }
