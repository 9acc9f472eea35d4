package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Span layers. Every span the benchmark records sits around one of its own
// calls into a layer of the program.
const (
	spanAtomic = iota // Replica.Atomic
	spanBody          // one execution attempt of a transaction body
	spanSend          // Transport.Send
	spanDo            // clientsrv.Client.Do
	spanExec          // clientsrv Backend.Exec
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"atomic", "body", "send", "do", "exec"}

// maxSpans caps the spans kept for the dump; the per-layer figures are
// aggregated on the fly and cover every span, kept or not.
const maxSpans = 200_000

// span is one timed call. Spans of one client operation share its op id; a
// send carries the op in flight on the sending replica (0 when idle), since
// the protocol sends from its own goroutines.
type span struct {
	op         uint64
	kind       uint8
	start, end int64 // ns since the tracer's origin
}

// tracer collects spans while on. It is off during set-up and warm-up.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// dump writes the kept spans as tab-separated op, layer, start_ns, end_ns.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "op\tlayer\tstart_ns\tend_ns\n")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.op, spanNames[s.kind], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sendCounts tallies what a replica's transport sent while tracing was on.
// Message kinds are counted per inner message, shard envelopes unwrapped.
type sendCounts struct {
	frames, groupFrames          int64 // Send calls; those carrying a GroupEnvelope
	msgs                         int64 // inner messages
	urbData, urbAck, order, beat int64 // by gcs message kind
	bytes                        int64 // wire.AppendEnvelope size of each frame
	encodeNs, sendNs             int64
}

func (c *sendCounts) sub(o sendCounts) {
	o.frames, o.groupFrames, o.msgs = -o.frames, -o.groupFrames, -o.msgs
	o.urbData, o.urbAck, o.order, o.beat = -o.urbData, -o.urbAck, -o.order, -o.beat
	o.bytes, o.encodeNs, o.sendNs = -o.bytes, -o.encodeNs, -o.sendNs
	c.add(o)
}

func (c *sendCounts) add(o sendCounts) {
	c.frames += o.frames
	c.groupFrames += o.groupFrames
	c.msgs += o.msgs
	c.urbData += o.urbData
	c.urbAck += o.urbAck
	c.order += o.order
	c.beat += o.beat
	c.bytes += o.bytes
	c.encodeNs += o.encodeNs
	c.sendNs += o.sendNs
}

// gcsKindURB is urbData.Kind for a plain URB payload (internal/gcs/messages.go);
// the other kinds, OAB payloads (2) and sequencer order batches (3), are
// counted together as order traffic.
const gcsKindURB = 1

const gcsPkg = "github.com/alcstm/alc/internal/gcs"

// classify counts one payload by message kind. The gcs messages are
// unexported, so they are recognised by type name.
func (c *sendCounts) classify(payload any) {
	switch p := payload.(type) {
	case *transport.GroupEnvelope:
		for _, e := range p.Envs {
			c.classify(e.Body)
		}
		return
	case *transport.ShardEnvelope:
		c.classify(p.Body)
		return
	}
	c.msgs++
	v := reflect.ValueOf(payload)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct || v.Type().PkgPath() != gcsPkg {
		return
	}
	switch v.Type().Name() {
	case "urbData":
		if v.FieldByName("Kind").Uint() == gcsKindURB {
			c.urbData++
		} else {
			c.order++
		}
	case "urbAck":
		c.urbAck++
	case "heartbeat":
		c.beat++
	}
}

var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// tap wraps a replica's transport when tracing: it times each Send, counts
// it by message kind, and encodes it once with the wire codec to measure the
// bytes and encode time the frame costs.
type tap struct {
	transport.Transport
	tr   *tracer
	self int32
	cur  *atomic.Uint64 // op in flight on this replica

	mu sync.Mutex
	c  sendCounts
}

func (t *tap) Send(to transport.ID, payload any) error {
	if !t.tr.on.Load() {
		return t.Transport.Send(to, payload)
	}
	var c sendCounts
	bp := encodeBufs.Get().(*[]byte)
	encStart := time.Now()
	buf, encErr := wire.AppendEnvelope((*bp)[:0], t.self, payload)
	c.encodeNs = int64(time.Since(encStart))
	if encErr == nil {
		c.bytes = int64(len(buf))
	}
	*bp = buf[:0]
	encodeBufs.Put(bp)

	start := t.tr.now()
	err := t.Transport.Send(to, payload)
	end := t.tr.now()
	c.sendNs = end - start
	c.frames = 1
	if _, ok := payload.(*transport.GroupEnvelope); ok {
		c.groupFrames = 1
	}
	c.classify(payload)
	t.mu.Lock()
	t.c.add(c)
	t.mu.Unlock()
	t.tr.record(span{op: t.cur.Load(), kind: spanSend, start: start, end: end})
	return err
}

func (t *tap) counts() sendCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// tracedBackend wraps the client port's ReplicaBackend to time Exec. Each
// node serves one closed-loop client, so the last Exec duration is the one
// the waiting client's Do contained.
type tracedBackend struct {
	inner    clientsrv.Backend
	tr       *tracer
	cur      *atomic.Uint64
	lastExec atomic.Int64
}

func (b *tracedBackend) Exec(op wire.Op, key string, arg int64) (int64, error) {
	if !b.tr.on.Load() {
		return b.inner.Exec(op, key, arg)
	}
	start := b.tr.now()
	v, err := b.inner.Exec(op, key, arg)
	end := b.tr.now()
	b.lastExec.Store(end - start)
	b.tr.record(span{op: b.cur.Load(), kind: spanExec, start: start, end: end})
	return v, err
}
