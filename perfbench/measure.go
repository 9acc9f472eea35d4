package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/alcstm/alc/internal/metrics"
)

// percentile returns the nearest-rank q-quantile of xs (sorted ascending):
// the smallest sample with at least q of the samples at or below it.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// histDelta is the set of observations a metrics.Histogram took between two
// snapshots, possibly merged over several histograms (one per replica).
type histDelta struct {
	count   int64
	sum     time.Duration
	buckets []int64
}

// deltaHist returns the observations after took that before had not.
func deltaHist(before, after metrics.HistogramSnapshot) histDelta {
	b, a := before.BucketCounts(), after.BucketCounts()
	d := histDelta{
		count:   after.Count() - before.Count(),
		sum:     after.Sum() - before.Sum(),
		buckets: make([]int64, len(a)),
	}
	for i := range a {
		d.buckets[i] = a[i] - b[i]
	}
	return d
}

// merge adds o's observations to d.
func (d histDelta) merge(o histDelta) histDelta {
	out := histDelta{count: d.count + o.count, sum: d.sum + o.sum, buckets: make([]int64, len(o.buckets))}
	for i := range out.buckets {
		if i < len(d.buckets) {
			out.buckets[i] = d.buckets[i]
		}
		out.buckets[i] += o.buckets[i]
	}
	return out
}

// mean is the mean observation (0 when there is none).
func (d histDelta) mean() time.Duration {
	if d.count <= 0 {
		return 0
	}
	return d.sum / time.Duration(d.count)
}

// quantile returns the upper bound of the bucket holding the q-quantile, the
// resolution metrics.HistogramSnapshot.Quantile reports at.
func (d histDelta) quantile(q float64) time.Duration {
	if d.count <= 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(d.count)))
	if target < 1 {
		target = 1
	}
	bounds := metrics.BucketBounds()
	var seen int64
	for i, n := range d.buckets {
		seen += n
		if seen >= target {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap is the heap in use right after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
