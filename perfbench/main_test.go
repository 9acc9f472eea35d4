package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/transport"
)

func TestPercentile(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianOf(t *testing.T) {
	subs := make([]subWindow, 4)
	for i := range subs {
		subs[i].cpu = time.Duration(10 * (i + 1))
	}
	v, n := medianOf(subs, func(s subWindow) (float64, int) { return float64(s.cpu), int(s.cpu) })
	if v != 25 || n != 10 {
		t.Errorf("medianOf(10,20,30,40) = %v (n=%d), want 25 (n=10)", v, n)
	}
	v, _ = medianOf(subs[:3], func(s subWindow) (float64, int) { return float64(s.cpu), 1 })
	if v != 20 {
		t.Errorf("medianOf(10,20,30) = %v, want 20", v)
	}
}

func TestHistDelta(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	before := h.Snapshot()
	for i := 0; i < 3; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(100 * time.Microsecond)
	d := deltaHist(before, h.Snapshot())
	if d.count != 4 {
		t.Fatalf("delta count = %d, want 4", d.count)
	}
	if d.sum != 130*time.Microsecond {
		t.Errorf("delta sum = %v, want 130µs", d.sum)
	}
	if m := d.mean(); m != 32500*time.Nanosecond {
		t.Errorf("delta mean = %v, want 32.5µs", m)
	}
	// The quantile is a bucket upper bound: at least the true value and
	// within one bucket ratio (1.4) of it.
	if q := d.quantile(0.5); q < 10*time.Microsecond || q > 14*time.Microsecond {
		t.Errorf("delta p50 = %v, want the bucket holding 10µs", q)
	}
	if q := d.quantile(1); q < 100*time.Microsecond || q > 140*time.Microsecond {
		t.Errorf("delta p100 = %v, want the bucket holding 100µs", q)
	}

	m := d.merge(d)
	if m.count != 8 || m.sum != 260*time.Microsecond || m.quantile(0.5) != d.quantile(0.5) {
		t.Errorf("merge with itself: count %d sum %v p50 %v", m.count, m.sum, m.quantile(0.5))
	}
	var empty histDelta
	if m := empty.merge(d); m.count != d.count || m.quantile(0.9) != d.quantile(0.9) {
		t.Errorf("merge into empty: count %d p90 %v", m.count, m.quantile(0.9))
	}
	if empty.mean() != 0 || empty.quantile(0.5) != 0 {
		t.Error("empty delta must read 0")
	}
}

func TestSendCounts(t *testing.T) {
	var a sendCounts
	a.classify(&transport.GroupEnvelope{Envs: []*transport.ShardEnvelope{
		{Shard: 0, Body: "x"}, {Shard: 1, Body: &transport.ShardEnvelope{Body: 1}},
	}})
	if a.msgs != 2 || a.urbData+a.urbAck+a.order+a.beat != 0 {
		t.Errorf("group of two non-gcs bodies counted as %+v", a)
	}
	b := a
	b.add(sendCounts{frames: 3, msgs: 4, bytes: 10})
	b.sub(a)
	if b != (sendCounts{frames: 3, msgs: 4, bytes: 10}) {
		t.Errorf("add then sub = %+v", b)
	}
}

func TestInRange(t *testing.T) {
	c := &client{
		in:    &inputs{initial: []int{100, 0}},
		delta: map[int]int{0: -3, 1: 5},
		// Key 0: one failed transfer may have debited it, two may have
		// credited it. Key 1: no update of unknown outcome.
		maybeDown: map[int]int{0: 1},
		maybeUp:   map[int]int{0: 2},
	}
	for _, tc := range []struct {
		key, got int
		want     bool
	}{
		{0, 97, true}, {0, 96, true}, {0, 99, true},
		{0, 95, false}, {0, 100, false},
		{1, 5, true}, {1, 4, false}, {1, 6, false},
	} {
		if ok := c.inRange(tc.key, tc.got); ok != tc.want {
			t.Errorf("inRange(key %d, %d) = %v, want %v", tc.key, tc.got, ok, tc.want)
		}
	}
}

func TestBranchesBalanced(t *testing.T) {
	w, _ := lookup("transfer-cross")
	in := genInputs(w, 5)
	seen := map[int]bool{}
	for c, b := range in.sets {
		var perShard [2]int
		for _, k := range b {
			if seen[k] {
				t.Errorf("account %d in two branches", k)
			}
			seen[k] = true
			perShard[lease.ShardOf(lease.Mapper{}.ClassOf(in.keys[k]), 2)]++
		}
		if perShard != [2]int{branchSize / 2, branchSize / 2} {
			t.Errorf("client %d branch splits %v across the shard groups, want half and half", c, perShard)
		}
	}
	again := genInputs(w, 5)
	for c := range in.sets {
		for i := range in.sets[c] {
			if again.sets[c][i] != in.sets[c][i] {
				t.Fatal("the same seed gave different branches")
			}
		}
	}
}

// contract is the metric list in the repository's BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractNamesWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}

// smoke runs one workload briefly and checks that it passes its check and
// emits exactly the contract's metrics with their units.
func smoke(t *testing.T, name string, trace bool, want []struct{ Name, Unit string }) map[string]float64 {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: name, seed: 3, seconds: 1, trace: trace,
		root: t.TempDir(), warmup: 300 * time.Millisecond, setups: 2,
	}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
			name, trace, res.correct, res.attempted, res.failed, out.String())
	}
	got := res.summary().Metrics
	vals := make(map[string]float64, len(got))
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, m.Name, g.Unit, m.Unit)
		}
		vals[m.Name] = g.Value
	}
	if len(got) != len(want) {
		t.Errorf("%s trace=%v: %d metrics emitted, the contract names %d", name, trace, len(got), len(want))
	}
	return vals
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := smoke(t, w.name, false, c.EndToEnd)
			for name, v := range e2e {
				if v <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, v)
				}
			}
			m := smoke(t, w.name, true, c.PerLayer)

			// Each workload reaches the layer it was chosen for.
			switch w.name {
			case "transfer-held", "transfer-cross":
				if m["lease.reuse_ratio"] < 0.95 {
					t.Errorf("lease.reuse_ratio = %v, want ≈ 1 (leases held)", m["lease.reuse_ratio"])
				}
			case "transfer-contended":
				if m["gcs.order_per_op"] <= 0 {
					t.Errorf("gcs.order_per_op = %v, want > 0 (leases rotate through OAB)", m["gcs.order_per_op"])
				}
				if m["core.attempts_per_commit"] <= 1 {
					t.Errorf("core.attempts_per_commit = %v, want > 1 (conflicts re-execute)", m["core.attempts_per_commit"])
				}
			}
			cross := m["core.cross_commit_ratio"]
			if w.shards > 1 && (cross < 0.45 || cross > 0.7) {
				t.Errorf("core.cross_commit_ratio = %v, want ≈ 4/7 (pairs spanning both halves of a branch)", cross)
			}
			if w.shards == 1 && cross != 0 {
				t.Errorf("core.cross_commit_ratio = %v on one shard, want 0", cross)
			}
			if frames := m["transport.group_frames_per_op"]; (w.shards > 1) != (frames > 0) {
				t.Errorf("transport.group_frames_per_op = %v with %d shards", frames, w.shards)
			}
			if recs := m["wal.records_per_op"]; w.durable != (recs > 0) {
				t.Errorf("wal.records_per_op = %v, want > 0 exactly on kv-durable", recs)
			}
			if w.durable && (m["clientsrv.exec_inc_us"] <= 0 || m["clientsrv.port_get_us"] <= 0) {
				t.Errorf("client port spans missing: exec_inc %v port_get %v",
					m["clientsrv.exec_inc_us"], m["clientsrv.port_get_us"])
			}
			if m["gcs.urb_data_per_op"] <= 0 || m["wire.bytes_per_op"] <= 0 {
				t.Errorf("sends not counted: urb_data %v wire bytes %v", m["gcs.urb_data_per_op"], m["wire.bytes_per_op"])
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1, setups: 1, root: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
