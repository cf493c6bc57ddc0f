// Package latency is the shared online latency accounting used by the
// serving layer (/metricsz, /queryz), the observability registry, and
// the load generator: a fixed geometric bucket ladder fine enough for
// percentile estimation, a lock-free Digest safe for concurrent Observe
// calls, and histogram-interpolation quantile estimates (p50/p95/p99)
// that stay honest by carrying the exact observed maximum for the
// open-ended top bucket.
//
// Units: everything internal is nanosecond-based (sums, maxima,
// quantile arithmetic); microseconds and milliseconds exist only at the
// edges (JSON summaries such as /queryz rows and svload reports via the
// *Us accessors, CLI output); /metricsz converts to seconds. Consumers converting for display
// divide at the edge rather than storing converted values.
package latency

import (
	"sync/atomic"
	"time"
)

// Bounds are the inclusive upper bounds of the histogram buckets; the
// implicit last bucket is +inf. The ladder is geometric (×~2.5 per rung)
// from 100µs to 10s, fine enough that interpolated percentiles are
// within one rung of the truth across the range a query server cares
// about.
var Bounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// NumBuckets is the bucket count including the +inf bucket.
const NumBuckets = len(Bounds) + 1

// Digest is an online latency accumulator: sum, exact max, and the
// bucket histogram, all nanosecond-based. The count is not stored
// separately — it is, by construction, the sum of the bucket counts, so
// a snapshot's histogram always sums exactly to its count, even taken
// mid-flight under concurrent Observe calls. The zero value is ready to
// use and all methods are safe for concurrent use.
type Digest struct {
	sumNs   atomic.Uint64
	maxNs   atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one latency.
func (d *Digest) Observe(v time.Duration) {
	if v < 0 {
		v = 0
	}
	ns := uint64(v.Nanoseconds())
	d.sumNs.Add(ns)
	for {
		old := d.maxNs.Load()
		if ns <= old || d.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	d.buckets[bucketIndex(v)].Add(1)
}

func bucketIndex(v time.Duration) int {
	for i, bound := range Bounds {
		if v <= bound {
			return i
		}
	}
	return len(Bounds)
}

// Snapshot is a point-in-time copy of a Digest, for quantile
// estimation and exposition. Buckets are in ladder order (the last is
// the +inf bucket). Count equals the bucket sum exactly,
// always; SumNs and MaxNs may lag or lead it by in-flight observations
// when snapshotted under load.
type Snapshot struct {
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
	Buckets [NumBuckets]uint64
}

// Snapshot copies the digest's counters. Count is derived from the
// bucket counts, so histogram-sums-to-count holds for every snapshot,
// including ones taken while Observe calls are in flight.
func (d *Digest) Snapshot() Snapshot {
	var s Snapshot
	for i := range d.buckets {
		s.Buckets[i] = d.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNs = d.sumNs.Load()
	s.MaxNs = d.maxNs.Load()
	return s
}

// SumNs returns the running observation sum in nanoseconds without
// snapshotting the buckets — the cheap cumulative-time read used as a
// sort key by per-fingerprint accounting (/queryz).
func (d *Digest) SumNs() uint64 { return d.sumNs.Load() }

// Count returns the number of observations so far (bucket sum).
func (d *Digest) Count() uint64 {
	n := uint64(0)
	for i := range d.buckets {
		n += d.buckets[i].Load()
	}
	return n
}

// MeanNs returns the mean latency in nanoseconds (0 when empty).
func (s Snapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// QuantileNs estimates the q-quantile (0 < q ≤ 1) in nanoseconds by
// linear interpolation inside the bucket holding the rank. The top
// (open-ended) bucket interpolates toward the exact observed maximum,
// and every estimate is clamped to it, so the estimate never exceeds a
// latency that actually happened. Returns 0 for an empty digest.
func (s Snapshot) QuantileNs(q float64) float64 {
	total := uint64(0)
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(Bounds[i-1].Nanoseconds())
		}
		hi := float64(s.MaxNs)
		if i < len(Bounds) {
			hi = float64(Bounds[i].Nanoseconds())
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(n)
		est := lo + (hi-lo)*frac
		if max := float64(s.MaxNs); est > max {
			est = max
		}
		return est
	}
	return float64(s.MaxNs)
}

// Microsecond-edge accessors: JSON summaries and human-facing output
// report microseconds; these divide at the edge so no converted value
// is ever stored.

// QuantileUs is QuantileNs in microseconds.
func (s Snapshot) QuantileUs(q float64) float64 { return s.QuantileNs(q) / 1e3 }

// MeanUs is MeanNs in microseconds.
func (s Snapshot) MeanUs() float64 { return s.MeanNs() / 1e3 }

// Summary is the compact JSON report of a digest: count/mean/max plus
// the standard percentile triplet. Microsecond units throughout (a
// wire-format edge; see the package comment).
type Summary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summarize computes the Summary of a snapshot.
func (s Snapshot) Summarize() Summary {
	return Summary{
		Count:  s.Count,
		MeanUs: s.MeanUs(),
		P50Us:  s.QuantileUs(0.50),
		P95Us:  s.QuantileUs(0.95),
		P99Us:  s.QuantileUs(0.99),
		MaxUs:  float64(s.MaxNs) / 1e3,
	}
}
