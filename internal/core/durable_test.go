package core

import (
	"fmt"
	"testing"

	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// mixedEntries builds n applied entries alternating between the TO lane
// (every third entry) and the URB lanes of writers 1 and 2, each lane in
// increasing order.
func mixedEntries(n int) []applyWSEntry {
	out := make([]applyWSEntry, n)
	var seq [3]uint64
	var ord int64
	for i := range out {
		if i%3 == 0 {
			ord++
			out[i] = applyWSEntry{TxnID: stm.TxnID{Replica: 1, Seq: 1000 + uint64(i)}, Ord: ord}
			continue
		}
		w := transport.ID(1 + i%2)
		seq[w]++
		out[i] = applyWSEntry{TxnID: stm.TxnID{Replica: w, Seq: seq[w]}}
	}
	return out
}

// evictionMarks computes the marks the ring must hold after the given prefix
// of entries fell out of it.
func evictionMarks(evicted []applyWSEntry) (map[transport.ID]uint64, int64) {
	urb := make(map[transport.ID]uint64)
	var to int64
	for _, e := range evicted {
		if e.Ord > 0 {
			to = max(to, e.Ord)
		} else {
			urb[e.TxnID.Replica] = max(urb[e.TxnID.Replica], e.TxnID.Seq)
		}
	}
	return urb, to
}

func sameEntries(t *testing.T, got, want []applyWSEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TxnID != want[i].TxnID || got[i].Ord != want[i].Ord {
			t.Fatalf("entry %d = %v/%d, want %v/%d", i, got[i].TxnID, got[i].Ord, want[i].TxnID, want[i].Ord)
		}
	}
}

// TestRetainRingKeepsSuffix pushes Retain+k mixed URB/TO entries through the
// apply filter and checks the delta window: exactly the last Retain entries,
// oldest first, with the eviction marks at the highest evicted Seq per
// writer and the highest evicted ordinal.
func TestRetainRingKeepsSuffix(t *testing.T) {
	const retain = 16
	for _, k := range []int{0, 1, 5, retain, 2*retain + 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			d, err := newDurable(DurabilityConfig{Retain: retain}, stm.NewStore(), 1)
			if err != nil {
				t.Fatal(err)
			}
			all := mixedEntries(retain + k)
			// Feed uneven batches (1, 2, 3, 1, ...) so pushes cross batch
			// boundaries.
			for i, n := 0, 1; i < len(all); i, n = i+n, n%3+1 {
				batch := all[i:min(i+n, len(all))]
				if fresh := d.append(0, batch); len(fresh) != len(batch) {
					t.Fatalf("append filtered fresh entries: %d of %d", len(fresh), len(batch))
				}
			}
			if got := d.stats().RetainedEntries; got != retain {
				t.Fatalf("RetainedEntries = %d, want %d", got, retain)
			}
			urb, to := evictionMarks(all[:k])
			sh := &d.shards[0]
			if sh.evictedTO != to {
				t.Fatalf("evictedTO = %d, want %d", sh.evictedTO, to)
			}
			for _, w := range []transport.ID{1, 2} {
				if sh.evicted[w] != urb[w] {
					t.Fatalf("evicted[%d] = %d, want %d", w, sh.evicted[w], urb[w])
				}
			}

			f := map[transport.ID]uint64{transport.Nobody: uint64(to)}
			for w, s := range urb {
				f[w] = s
			}
			got, ok := d.delta(0, f)
			if !ok {
				t.Fatal("delta from the eviction marks refused")
			}
			sameEntries(t, got, all[k:])

			if k > 0 {
				// A joiner behind the window must take a full transfer.
				if _, ok := d.delta(0, map[transport.ID]uint64{}); ok {
					t.Fatal("delta from an empty frontier accepted after evictions")
				}
			}
		})
	}
}

// TestRetainRingInstallFullResets checks that a full install empties the
// window and that later pushes wrap from a clean head.
func TestRetainRingInstallFullResets(t *testing.T) {
	const retain = 8
	d, err := newDurable(DurabilityConfig{Retain: retain}, stm.NewStore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.append(0, mixedEntries(retain+3))
	f := map[transport.ID]uint64{transport.Nobody: uint64(d.toOrd(0))}
	for w, s := range d.shards[0].frontier {
		f[w] = s
	}
	d.installFull(0, f, stm.NewStore())
	if got := d.stats().RetainedEntries; got != 0 {
		t.Fatalf("RetainedEntries after install = %d, want 0", got)
	}
	next := make([]applyWSEntry, 0, retain+2)
	for i := 0; i < retain+2; i++ {
		next = append(next, applyWSEntry{TxnID: stm.TxnID{Replica: 2, Seq: 1000 + uint64(i)}})
	}
	d.append(0, next)
	got, ok := d.delta(0, map[transport.ID]uint64{
		1: f[1], 2: next[1].TxnID.Seq, transport.Nobody: f[transport.Nobody],
	})
	if !ok {
		t.Fatal("delta refused")
	}
	sameEntries(t, got, next[2:])
}

// BenchmarkDurableAppend measures the apply-path bookkeeping for one entry
// with the retain window full: it should cost the same at any Retain and
// allocate nothing.
func BenchmarkDurableAppend(b *testing.B) {
	for _, retain := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			d, err := newDurable(DurabilityConfig{Retain: retain}, stm.NewStore(), 1)
			if err != nil {
				b.Fatal(err)
			}
			one := []applyWSEntry{{TxnID: stm.TxnID{Replica: 1}, WS: stm.WriteSet{{Box: "x", Value: 1}}}}
			for i := 0; i < retain; i++ {
				one[0].TxnID.Seq++
				d.append(0, one)
			}
			b.ReportAllocs()
			for b.Loop() {
				one[0].TxnID.Seq++
				d.append(0, one)
			}
		})
	}
}
