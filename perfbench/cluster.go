package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/tcpnet"
	"github.com/alcstm/alc/internal/transport"
)

// replicas is the group size: two replicas carry a client each, the third
// only acknowledges and applies.
const replicas = 3

// cluster is one replica group assembled the way cmd/alc-node assembles a
// node, all replicas in this process.
type cluster struct {
	reps     []*core.Replica
	trs      []transport.Transport // as built, before any tap
	net      *memnet.Network       // memnet workloads
	taps     []*tap                // traced runs only
	servers  []*clientsrv.Server   // kv-durable
	backends []*tracedBackend      // kv-durable, traced runs only
	dirs     []string              // kv-durable WAL directories
	inflight [replicas]atomic.Uint64
}

// config is every protocol setting at the value cmd/alc-node ships with;
// only the shard count and the durability directory vary.
func config(shards int, dir string) core.Config {
	return core.Config{
		Protocol: core.ProtocolALC,
		Shards:   shards,
		Lease:    lease.Config{OptimisticFree: true, DeadlockDetection: true},
		Durability: core.DurabilityConfig{
			Dir:           dir,
			Fsync:         "interval",
			FsyncInterval: 5 * time.Millisecond,
		},
	}
}

// newCluster builds the transports, replicas and (kv-durable) client ports,
// seeds every replica and waits until each has installed the full view.
// workDir holds the WAL directories; tr, when non-nil, wraps the transports
// and backends for tracing.
func newCluster(w workload, seed map[string]stm.Value, workDir string, tr *tracer) (_ *cluster, err error) {
	c := &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	ids := make([]transport.ID, replicas)
	for i := range ids {
		ids[i] = transport.ID(i)
	}
	if c.trs, err = buildTransports(w, ids, c); err != nil {
		return nil, err
	}
	for i, raw := range c.trs {
		var t transport.Transport = raw
		if tr != nil {
			tp := &tap{Transport: raw, tr: tr, self: int32(i), cur: &c.inflight[i]}
			c.taps = append(c.taps, tp)
			t = tp
		}
		dir := ""
		if w.durable {
			dir = filepath.Join(workDir, fmt.Sprintf("node-%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			c.dirs = append(c.dirs, dir)
		}
		r, err := core.NewReplica(t, config(w.shards, dir), gcs.Config{Members: ids, AutoRejoin: true})
		if err != nil {
			return nil, err
		}
		c.reps = append(c.reps, r)
	}
	// Seed once every replica is up: a replica seeding alone would leave its
	// peers unheard long enough to be suspected.
	for _, r := range c.reps {
		if err := r.Seed(seed); err != nil {
			return nil, err
		}
	}
	for _, r := range c.reps {
		if err := r.WaitForView(replicas, 30*time.Second); err != nil {
			return nil, err
		}
	}
	if w.durable {
		for i, r := range c.reps {
			var b clientsrv.Backend = clientsrv.ReplicaBackend{R: r}
			if tr != nil {
				tb := &tracedBackend{inner: b, tr: tr, cur: &c.inflight[i]}
				c.backends = append(c.backends, tb)
				b = tb
			}
			srv, err := clientsrv.Serve("127.0.0.1:0", clientsrv.Config{Backend: b})
			if err != nil {
				return nil, err
			}
			c.servers = append(c.servers, srv)
		}
	}
	return c, nil
}

// buildTransports makes one transport per replica: memnet endpoints with no
// injected delay, or tcpnet over loopback for the durable workload.
func buildTransports(w workload, ids []transport.ID, c *cluster) ([]transport.Transport, error) {
	out := make([]transport.Transport, 0, len(ids))
	if !w.durable {
		c.net = memnet.New(memnet.Config{})
		for _, id := range ids {
			ep, err := c.net.Endpoint(id)
			if err != nil {
				return out, err
			}
			out = append(out, ep)
		}
		return out, nil
	}
	// Bind throwaway listeners to learn free ports, then start every node
	// with the full address map.
	addrs := make(map[transport.ID]string, len(ids))
	for _, id := range ids {
		tmp, err := tcpnet.New(tcpnet.Config{Self: id, Addrs: map[transport.ID]string{id: "127.0.0.1:0"}})
		if err != nil {
			return out, err
		}
		addrs[id] = tmp.Addr()
		if err := tmp.Close(); err != nil {
			return out, err
		}
	}
	for _, id := range ids {
		t, err := tcpnet.New(tcpnet.Config{Self: id, Addrs: addrs})
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// close stops everything the cluster started; the WAL directories stay for
// the replay measurement. Call it only once traffic has quiesced.
func (c *cluster) close() error {
	var errs []error
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	for _, r := range c.reps {
		errs = append(errs, r.Close())
	}
	for _, t := range c.trs {
		errs = append(errs, t.Close())
	}
	if c.net != nil {
		c.net.Close()
	}
	return errors.Join(errs...)
}

// quiesce waits until every replica is in the full view and no replica's
// count of applied write-sets has moved for quietFor. It does not ask the
// counts to agree: a replica healed by a state transfer takes the state
// without applying its write-sets, so converged replicas can differ in the
// count. Whether their states agree is for check to say.
func (c *cluster) quiesce(timeout time.Duration) error {
	const quietFor = 300 * time.Millisecond
	deadline := time.Now().Add(timeout)
	for _, r := range c.reps {
		if err := r.WaitForView(replicas, time.Until(deadline)); err != nil {
			return fmt.Errorf("quiesce: %w", err)
		}
	}
	last := make([]int64, len(c.reps))
	quietSince := time.Now()
	for time.Now().Before(deadline) {
		moved := false
		for i, r := range c.reps {
			if a := r.Stats().STM.Applied; a != last[i] {
				last[i], moved = a, true
			}
		}
		if moved {
			quietSince = time.Now()
		} else if time.Since(quietSince) >= quietFor {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("replicas still applying write-sets %v after the clients stopped", timeout)
}
