// Command perfbench is the repository's benchmark. It assembles a 3-replica
// group in this process, drives it with two closed-loop clients for a fixed
// window, checks every replica's final state against the acknowledged
// operations, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload transfer-held --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/wal"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // scratch files go under root/.bench_build
	commit   string
	warmup   time.Duration // after the clients' own warm-up, before the window
	setups   int           // cluster set-ups in an untraced run; setup_s is their median
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "directory whose .bench_build/ holds WAL directories and results")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, for the provenance line")
	flag.Parse()
	o.trace = trace == 1
	o.warmup = 2 * time.Second
	o.setups = 9

	// A run must end within 180s. A hung one fails with every goroutine's
	// stack on standard error.
	time.AfterFunc(170*time.Second, func() {
		buf := make([]byte, 1<<22)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish within 170s")
		os.Exit(1)
	})
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported figure. n, when set, is the sample count behind a
// percentile or mean.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, value float64, unit string, n int64) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) summary() summary {
	s := summary{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s
}

// snapshot is the state of every counter the metrics are deltas of.
type snapshot struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
	stats  []core.Stats
	srv    []clientsrv.Stats
	sends  sendCounts
}

func takeSnapshot(c *cluster) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime(), allocs: mallocs()}
	for _, r := range c.reps {
		s.stats = append(s.stats, r.Stats())
	}
	for _, srv := range c.servers {
		s.srv = append(s.srv, srv.Stats())
	}
	for _, t := range c.taps {
		s.sends.add(t.counts())
	}
	return s
}

func run(o options, out io.Writer) (*result, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 || o.setups < 1 {
		return nil, fmt.Errorf("-seconds must be positive and -setups at least 1")
	}
	gcs.RegisterWire()
	core.RegisterWire()
	core.RegisterValue(0)

	workDir := filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	in := genInputs(w, o.seed)
	seed := in.seedValues()

	// phase times where the run's wall clock went, for the report.
	res := &result{}
	last := time.Now()
	var phases []string
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.2fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	built := 0
	build := func(tr *tracer) (*cluster, time.Duration, error) {
		// Collect the garbage of earlier clusters first, so that a set-up
		// does not pay for it.
		runtime.GC()
		start := time.Now()
		c, err := newCluster(w, seed, filepath.Join(workDir, fmt.Sprint(built)), tr)
		built++
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", built, err)
		}
		return c, time.Since(start), nil
	}

	window := time.Duration(o.seconds * float64(time.Second))
	var setups []time.Duration
	var passes []*pass
	var tr *tracer
	if !o.trace {
		// Set up several times and measure on the last cluster: setup_s is
		// the median.
		var c *cluster
		for i := 0; i < o.setups; i++ {
			if c != nil {
				if err := c.close(); err != nil {
					return nil, fmt.Errorf("set-up %d: close: %w", i, err)
				}
			}
			var d time.Duration
			var err error
			if c, d, err = build(nil); err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		phase("set-up")
		p, err := measure(o, w, in, c, nil, window, subWindows, phase)
		if err != nil {
			return nil, err
		}
		passes = []*pass{p}
		endToEnd(res, setups, p)
	} else {
		// The tracing overhead compares an untraced pass with a traced one.
		// Each runs half the window on a fresh cluster built from the same
		// inputs, after the same warm-up, so both measure the same stretch
		// of a fresh cluster's life.
		tr = newTracer()
		for i, t := range []*tracer{nil, tr} {
			c, _, err := build(t)
			if err != nil {
				return nil, err
			}
			phase("set-up")
			span := window / 2
			if i == 1 {
				span = window - window/2
			}
			p, err := measure(o, w, in, c, t, span, 1, phase)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
		passes[0].label, passes[1].label = "untraced pass", "traced pass"
		perLayer(res, w, passes[1], passes[0].ops(), tr)
	}
	res.notes = append(res.notes, "phases: "+strings.Join(phases, ", "))

	res.correct = true
	for _, p := range passes {
		ow := p.ops()
		res.attempted += ow.attempted
		res.failed += ow.failed + p.chk.lost + p.mismatches()
		res.correct = res.correct && len(p.problems) == 0
		res.notes = append(res.notes, p.notes...)
	}

	writeReport(out, o, w, res, setups, passes)
	if tr != nil {
		dir := filepath.Join(o.root, ".bench_build", "results")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, o.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.dump(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintln(out, "# spans written to", path)
	}
	return res, nil
}

// pass is one measured window on one cluster, with its untimed check.
type pass struct {
	label    string
	cls      []*client
	origin   time.Time
	s0, s1   snapshot
	marks    []mark // sub-window boundaries, s0 and s1 included
	heap     uint64 // live heap after the window, the clients' records excluded
	chk      checkResult
	problems []string
	notes    []string
	replay   time.Duration // wal.Replay of the third node's log (traced kv-durable)
	replayed int
}

// ops is the operations that returned inside the pass's window.
func (p *pass) ops() opsWindow {
	return windowOps(p.cls, p.since(p.s0.at, p.s1.at))
}

func (p *pass) since(a, b time.Time) interval {
	return interval{start: int64(a.Sub(p.origin)), end: int64(b.Sub(p.origin))}
}

func (p *pass) mismatches() (n int64) {
	for _, cl := range p.cls {
		n += cl.mismatches
	}
	return n
}

// measure drives c with the clients for window, cut into parts sub-windows,
// then stops them, lets the replicas quiesce and checks their state. It
// closes c. With tr set, tracing is on for the window.
func measure(o options, w workload, in *inputs, c *cluster, tr *tracer, window time.Duration,
	parts int, phase func(string)) (*pass, error) {
	closed := false
	defer func() {
		if !closed {
			c.close()
		}
	}()
	p := &pass{origin: time.Now()}
	p.cls = make([]*client, clients)
	for i := range p.cls {
		p.cls[i] = newClient(i, w, in, o.seed, p.origin, c, tr)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var warmed sync.WaitGroup
	warmErrs := make([]error, len(p.cls))
	for i, cl := range p.cls {
		wg.Add(1)
		warmed.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			warmErrs[i] = cl.warm()
			warmed.Done()
			if warmErrs[i] == nil {
				cl.loop(&stop)
			}
		}(i, cl)
	}
	warmed.Wait()
	if err := errors.Join(warmErrs...); err != nil {
		stop.Store(true)
		wg.Wait()
		c.quiesce(20 * time.Second)
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	time.Sleep(o.warmup)
	phase("warm-up")

	p.s0 = takeSnapshot(c)
	p.marks = []mark{{at: p.s0.at, cpu: p.s0.cpu}}
	if tr != nil {
		tr.on.Store(true)
	}
	for i := 1; i < parts; i++ {
		time.Sleep(window / time.Duration(parts))
		p.marks = append(p.marks, mark{at: time.Now(), cpu: cpuTime()})
	}
	time.Sleep(window - time.Duration(parts-1)*(window/time.Duration(parts)))
	if tr != nil {
		tr.on.Store(false)
	}
	p.s1 = takeSnapshot(c)
	p.marks = append(p.marks, mark{at: p.s1.at, cpu: p.s1.cpu})
	stop.Store(true)
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(20 * time.Second):
		// Closing the client connections fails the requests still waiting.
		p.problems = append(p.problems, "an operation had not returned 20s after the window ended")
		for _, cl := range p.cls {
			if cl.kv != nil {
				cl.kv.Close()
			}
		}
		<-stopped
	}
	for _, cl := range p.cls {
		if cl.kv != nil {
			cl.kv.Close()
		}
	}
	p.heap = liveHeap()
	for _, cl := range p.cls {
		p.heap -= uint64(cap(cl.recs)) * uint64(unsafe.Sizeof(opRec{}))
	}
	phase("window")

	if err := c.quiesce(20 * time.Second); err != nil {
		p.problems = append(p.problems, err.Error())
	}
	phase("quiesce")
	p.chk = check(c, in, p.cls)
	phase("check")
	p.problems = append(p.problems, p.chk.problems...)
	for _, cl := range p.cls {
		if cl.firstBad != "" {
			p.problems = append(p.problems, cl.firstBad)
		}
		if cl.firstErr != "" {
			p.notes = append(p.notes, "first operation error: "+cl.firstErr)
		}
	}

	// Stop the replicas, then time the replay of the third node's log.
	closed = true
	if err := c.close(); err != nil {
		p.problems = append(p.problems, "close: "+err.Error())
	}
	if w.durable && tr != nil {
		start := time.Now()
		n, _, err := wal.Replay(wal.LogPath(c.dirs[replicas-1]), func([]byte) error { return nil })
		p.replay, p.replayed = time.Since(start), n
		if err != nil {
			p.problems = append(p.problems, "wal replay: "+err.Error())
		}
	}
	phase("close")
	return p, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// opsWindow is the operations whose return fell inside one window.
type opsWindow struct {
	seconds           float64
	attempted, failed int64
	completed         int64
	updates, reads    []time.Duration // sorted latencies of completed ops
}

// interval is a stretch of the run in ns since its origin.
type interval struct{ start, end int64 }

// windowOps selects the operations that returned inside win (ns since the
// run's origin).
func windowOps(cls []*client, win interval) opsWindow {
	ow := opsWindow{seconds: float64(win.end-win.start) / 1e9}
	for _, cl := range cls {
		for _, r := range cl.recs {
			if r.end < win.start || r.end >= win.end {
				continue
			}
			ow.attempted++
			if !r.ok {
				ow.failed++
				continue
			}
			ow.completed++
			if r.read {
				ow.reads = append(ow.reads, time.Duration(r.dur))
			} else {
				ow.updates = append(ow.updates, time.Duration(r.dur))
			}
		}
	}
	ow.updates = sortedCopy(ow.updates)
	ow.reads = sortedCopy(ow.reads)
	return ow
}

func medianDuration(xs []time.Duration) time.Duration {
	return percentile(sortedCopy(xs), 0.5)
}

// subWindows is how many equal parts the untraced window is cut into. The
// timing metrics are the median over the parts, so a stall from outside the
// program moves one part, not the run's figure.
const subWindows = 10

// mark is a sub-window boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

type subWindow struct {
	ops opsWindow
	cpu time.Duration
}

// medianOf is the median of f over the sub-windows, with the smallest
// sample count behind any of them.
func medianOf(subs []subWindow, f func(subWindow) (float64, int)) (float64, int64) {
	vals := make([]float64, len(subs))
	n := -1
	for i, s := range subs {
		v, k := f(s)
		vals[i] = v
		if n < 0 || k < n {
			n = k
		}
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 0 {
		return (vals[m-1] + vals[m]) / 2, int64(n)
	}
	return vals[m], int64(n)
}

func endToEnd(res *result, setups []time.Duration, p *pass) {
	subs := make([]subWindow, len(p.marks)-1)
	for i := range subs {
		subs[i] = subWindow{
			ops: windowOps(p.cls, p.since(p.marks[i].at, p.marks[i+1].at)),
			cpu: p.marks[i+1].cpu - p.marks[i].cpu,
		}
	}
	add := func(name, unit string, f func(subWindow) (float64, int)) {
		v, n := medianOf(subs, f)
		res.add(name, v, unit, n)
		parts := make([]string, len(subs))
		for i, s := range subs {
			x, _ := f(s)
			parts[i] = fmt.Sprintf("%.5g", x)
		}
		res.notes = append(res.notes, fmt.Sprintf("sub-windows %s: %s", name, strings.Join(parts, " ")))
	}
	pct := func(xs func(opsWindow) []time.Duration, q float64) func(subWindow) (float64, int) {
		return func(s subWindow) (float64, int) {
			d := xs(s.ops)
			return us(percentile(d, q)), len(d)
		}
	}
	updates := func(o opsWindow) []time.Duration { return o.updates }
	reads := func(o opsWindow) []time.Duration { return o.reads }
	res.add("setup_s", medianDuration(setups).Seconds(), "s", int64(len(setups)))
	add("ops_per_s", "1/s", func(s subWindow) (float64, int) {
		return ratio(float64(s.ops.completed), s.ops.seconds), int(s.ops.completed)
	})
	add("update_p50_us", "us", pct(updates, 0.50))
	// The read latency and the tails are reported but carry no bound: on a
	// 2-core host they spread too widely from run to run to gate a change
	// (see README.md).
	for _, q := range []float64{0.50, 0.95, 0.99} {
		u, un := medianOf(subs, pct(updates, q))
		r, rn := medianOf(subs, pct(reads, q))
		res.notes = append(res.notes, fmt.Sprintf("latency p%.0f: update %.1f us (n=%d), read %.1f us (n=%d)",
			100*q, u, un, r, rn))
	}
	add("cpu_us_per_op", "us", func(s subWindow) (float64, int) {
		return ratio(us(s.cpu), float64(s.ops.completed)), int(s.ops.completed)
	})
	ow := p.ops()
	res.add("allocs_per_op", ratio(float64(p.s1.allocs-p.s0.allocs), float64(ow.completed)), "count", ow.completed)
	res.add("heap_live_mb", float64(p.heap)/(1<<20), "MB", 0)
}

// layerDeltas sums the replicas' counter deltas between two snapshots.
type layerDeltas struct {
	commits, aborts, cross           int64
	reused, acquired, stolen         int64
	batches, batchedTxns             int64
	gcRuns, gcPruned, stripe, clock  int64
	walRecords, walBytes             int64
	admitted, shed                   int64
	exec, leaseWait, cert, coalescer histDelta
	urb, apply, commitLat, fsync     histDelta
}

func deltas(a, b snapshot) layerDeltas {
	var d layerDeltas
	for i := range b.stats {
		x, y := a.stats[i], b.stats[i]
		d.commits += y.Commits - x.Commits
		d.aborts += y.Aborts - x.Aborts
		d.cross += y.CrossCommits - x.CrossCommits
		d.reused += y.Lease.Reused - x.Lease.Reused
		d.acquired += y.Lease.Acquired - x.Lease.Acquired
		d.stolen += y.Lease.Stolen - x.Lease.Stolen
		d.batches += y.Batch.Batches - x.Batch.Batches
		d.batchedTxns += y.Batch.BatchedTxns - x.Batch.BatchedTxns
		d.gcRuns += y.STM.GCRuns - x.STM.GCRuns
		d.gcPruned += y.STM.GCPruned - x.STM.GCPruned
		d.stripe += y.STM.StripeContention - x.STM.StripeContention
		d.clock += y.STM.ClockWaits - x.STM.ClockWaits
		d.walRecords += y.WAL.Records - x.WAL.Records
		d.walBytes += y.WAL.AppendedBytes - x.WAL.AppendedBytes
		d.exec = d.exec.merge(deltaHist(x.Stages.Execution, y.Stages.Execution))
		d.leaseWait = d.leaseWait.merge(deltaHist(x.Stages.LeaseWait, y.Stages.LeaseWait))
		d.cert = d.cert.merge(deltaHist(x.Stages.Certification, y.Stages.Certification))
		d.coalescer = d.coalescer.merge(deltaHist(x.Stages.Coalescer, y.Stages.Coalescer))
		d.urb = d.urb.merge(deltaHist(x.Stages.URB, y.Stages.URB))
		d.apply = d.apply.merge(deltaHist(x.Stages.Apply, y.Stages.Apply))
		d.commitLat = d.commitLat.merge(deltaHist(x.CommitLatency, y.CommitLatency))
		d.fsync = d.fsync.merge(deltaHist(x.WAL.FsyncLatency, y.WAL.FsyncLatency))
	}
	for i := range b.srv {
		d.admitted += b.srv[i].Admitted - a.srv[i].Admitted
		d.shed += b.srv[i].Shed - a.srv[i].Shed
	}
	return d
}

// perLayer reports the traced pass; untraced is the untraced pass's window,
// the baseline of the tracing overhead.
func perLayer(res *result, w workload, p *pass, untraced opsWindow, tr *tracer) {
	cls, a, b := p.cls, p.s0, p.s1
	traced := p.ops()
	d := deltas(a, b)
	ops := float64(traced.completed)
	n := traced.completed
	secs := b.at.Sub(a.at).Seconds()
	var t opTrace
	for _, cl := range cls {
		t.updates += cl.trace.updates
		t.atomicSelfNs += cl.trace.atomicSelfNs
		t.attempts += cl.trace.attempts
		t.bodies += cl.trace.bodies
		t.bodyNs += cl.trace.bodyNs
		t.commitNs = append(t.commitNs, cl.trace.commitNs...)
		for k := range t.doNs {
			t.doNs[k] += cl.trace.doNs[k]
			t.execNs[k] += cl.trace.execNs[k]
			t.doN[k] += cl.trace.doN[k]
		}
	}

	// stm and core: the benchmark's own spans where it calls Atomic; on
	// kv-durable the client port makes those calls, so the layers' own
	// histograms stand in.
	if w.durable {
		res.add("stm.exec_us", us(d.exec.mean()), "us", d.exec.count)
		res.add("core.commit_us", us(d.commitLat.quantile(0.50)), "us", d.commitLat.count)
		res.add("core.commit_p99_us", us(d.commitLat.quantile(0.99)), "us", d.commitLat.count)
		res.add("core.attempts_per_commit", ratio(float64(d.commits+d.aborts), float64(d.commits)), "count", d.commits)
	} else {
		commit := make([]time.Duration, len(t.commitNs))
		for i, v := range t.commitNs {
			commit[i] = time.Duration(v)
		}
		commit = sortedCopy(commit)
		res.add("stm.exec_us", ratio(float64(t.bodyNs)/1e3, float64(t.bodies)), "us", t.bodies)
		res.add("core.commit_us", us(percentile(commit, 0.50)), "us", int64(len(commit)))
		res.add("core.commit_p99_us", us(percentile(commit, 0.99)), "us", int64(len(commit)))
		res.add("core.attempts_per_commit", ratio(float64(t.attempts), float64(t.updates)), "count", t.updates)
	}
	res.add("stm.gc_runs_per_kop", 1000*ratio(float64(d.gcRuns), ops), "count/kop", n)
	res.add("stm.gc_pruned_per_op", ratio(float64(d.gcPruned), ops), "count/op", n)
	res.add("stm.stripe_contention_per_op", ratio(float64(d.stripe), ops), "count/op", n)
	res.add("stm.clock_waits_per_op", ratio(float64(d.clock), ops), "count/op", n)
	res.add("core.stage_lease_wait_us", us(d.leaseWait.mean()), "us", d.leaseWait.count)
	res.add("core.stage_cert_us", us(d.cert.mean()), "us", d.cert.count)
	res.add("core.stage_coalescer_us", us(d.coalescer.mean()), "us", d.coalescer.count)
	res.add("core.stage_urb_us", us(d.urb.mean()), "us", d.urb.count)
	res.add("core.stage_apply_us", us(d.apply.mean()), "us", d.apply.count)
	res.add("core.txns_per_batch", ratio(float64(d.batchedTxns), float64(d.batches)), "count", d.batches)
	res.add("core.cross_commit_ratio", ratio(float64(d.cross), float64(d.commits)), "ratio", d.commits)

	res.add("lease.reuse_ratio", ratio(float64(d.reused), float64(d.reused+d.acquired)), "ratio", d.reused+d.acquired)
	res.add("lease.acquired_per_op", ratio(float64(d.acquired), ops), "count/op", n)
	res.add("lease.stolen_per_op", ratio(float64(d.stolen), ops), "count/op", n)

	s := b.sends
	s.sub(a.sends)
	res.add("gcs.msgs_per_op", ratio(float64(s.msgs), ops), "count/op", n)
	res.add("gcs.urb_data_per_op", ratio(float64(s.urbData), ops), "count/op", n)
	res.add("gcs.urb_ack_per_op", ratio(float64(s.urbAck), ops), "count/op", n)
	res.add("gcs.order_per_op", ratio(float64(s.order), ops), "count/op", n)
	res.add("gcs.heartbeats_per_s", ratio(float64(s.beat), secs), "1/s", s.beat)
	res.add("transport.send_us", ratio(float64(s.sendNs)/1e3, float64(s.frames)), "us", s.frames)
	res.add("transport.group_frames_per_op", ratio(float64(s.groupFrames), ops), "count/op", n)
	res.add("wire.bytes_per_op", ratio(float64(s.bytes), ops), "B/op", n)
	res.add("wire.encode_ns_per_msg", ratio(float64(s.encodeNs), float64(s.frames)), "ns", s.frames)

	res.add("wal.records_per_op", ratio(float64(d.walRecords), ops), "count/op", n)
	res.add("wal.bytes_per_op", ratio(float64(d.walBytes), ops), "B/op", n)
	res.add("wal.fsyncs_per_s", ratio(float64(d.fsync.count), secs), "1/s", d.fsync.count)
	res.add("wal.fsync_p50_us", us(d.fsync.quantile(0.50)), "us", d.fsync.count)
	res.add("wal.replay_us_per_record", ratio(us(p.replay), float64(p.replayed)), "us", int64(p.replayed))

	for k, op := range []string{"get", "inc"} {
		res.add("clientsrv.exec_"+op+"_us", ratio(float64(t.execNs[k])/1e3, float64(t.doN[k])), "us", t.doN[k])
		res.add("clientsrv.port_"+op+"_us", ratio(float64(t.doNs[k]-t.execNs[k])/1e3, float64(t.doN[k])), "us", t.doN[k])
	}
	res.add("clientsrv.shed_ratio", ratio(float64(d.shed), float64(d.admitted+d.shed)), "ratio", d.admitted+d.shed)

	plain, withTrace := ratio(float64(untraced.completed), untraced.seconds), ratio(ops, traced.seconds)
	res.add("trace.ops_per_s", withTrace, "1/s", n)
	res.add("trace.overhead_pct", 100*ratio(plain-withTrace, plain), "%", n)

	// Self time per layer: a span's duration minus the part its child
	// spans cover, per operation.
	self := []struct {
		layer string
		ns    int64
	}{
		{"core (Atomic minus body)", t.atomicSelfNs},
		{"stm (body attempts)", t.bodyNs},
		{"clientsrv port (Do minus Exec)", t.doNs[0] + t.doNs[1] - t.execNs[0] - t.execNs[1]},
		{"clientsrv exec (ReplicaBackend: core+stm)", t.execNs[0] + t.execNs[1]},
		{"transport (Send, protocol goroutines)", s.sendNs},
	}
	for _, l := range self {
		res.notes = append(res.notes, fmt.Sprintf("self time %-42s %10.2f us/op", l.layer, ratio(float64(l.ns)/1e3, ops)))
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d kept for the dump, %d beyond the cap", len(tr.spans), tr.dropped))
}

func writeReport(out io.Writer, o options, w workload, res *result, setups []time.Duration, passes []*pass) {
	p := func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) }
	p("perfbench workload=%s seed=%d seconds=%g trace=%d", w.name, o.seed, o.seconds, btoi(o.trace))
	p("why: %s", w.why)
	p("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), o.commit)
	p("load: closed loop, %d clients (on replicas 0 and 1) of %d replicas, shards=%d, %d seeded keys",
		clients, replicas, w.shards, numKeys)
	if w.durable {
		p("transport: tcpnet over loopback; clients use the clientsrv port, one connection each")
		p("durability: WAL per node, fsync=interval every 5ms, snapshot every 4096 records")
	} else {
		p("transport: memnet with zero injected delay (no Latency, no PerMessageCost, no sequencer OrderInterval): latency is processor time only")
		p("durability: none (memory-only replicas)")
	}
	p("note: one committer per replica never enqueues Seq n+1 before Seq n on a replica, so a clean run is no evidence about the ROADMAP P0 frontier-drop fix")
	p("note: the calibrated alc-bench experiments (fig3a/3b, ablation-*, BENCH_PR*.json) are protocol-shape results, not this benchmark")
	if len(setups) > 0 {
		p("setup: %d set-ups, median %.4fs (%v)", len(setups), medianDuration(setups).Seconds(), setups)
	}
	for _, ps := range passes {
		label := "window"
		if ps.label != "" {
			label = ps.label + " window"
		}
		ow := ps.ops()
		p("%s: %.3fs, attempted=%d completed=%d failed=%d (errors+shed %d, lost acknowledged updates %d, online check mismatches %d)",
			label, ow.seconds, ow.attempted, ow.completed, ow.failed+ps.chk.lost+ps.mismatches(),
			ow.failed, ps.chk.lost, ps.mismatches())
		if len(ps.problems) == 0 {
			p("check: passed (every replica holds exactly the seeded values plus the acknowledged updates)")
		}
		for _, pr := range ps.problems {
			p("check FAILED: %s", pr)
		}
	}
	p("failed_ratio=%.6f (failed %d of %d attempted)",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, n := range res.notes {
		p("%s", n)
	}
	ms := append([]metric(nil), res.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		sample := ""
		if m.n > 0 {
			sample = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(out, "%-32s %14.4f %-9s %s\n", m.name, m.value, m.unit, sample)
	}
}
