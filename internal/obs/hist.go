package obs

import (
	"math"
	"math/bits"
	"sort"
)

// histBuckets is one bucket per possible bit length of a uint64, plus
// bucket 0 for the value 0.
const histBuckets = 65

// Histogram is a log2-bucket latency histogram: bucket b counts values v
// with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b). Observing is three
// adds, cheap enough for per-walk recording. A histogram has a single
// owner (see the package doc), so a Snapshot is exact.
type Histogram struct {
	counts [histBuckets]uint64
	sum    uint64
	n      uint64
}

// Observe records one value. Nil-safe so unwired subsystems pay a branch.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bits.Len64(v)]++
	h.sum += v
	h.n++
}

// Count reports total observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Sum: h.sum, Count: h.n}
	for b, c := range h.counts {
		if c != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[b] = c
		}
	}
	return s
}

// HistSnapshot is a point-in-time histogram reading. Buckets maps the
// log2 bucket index to its count; BucketUpper gives the bucket's
// exclusive upper bound.
type HistSnapshot struct {
	Buckets map[int]uint64 `json:"buckets,omitempty"`
	Sum     uint64         `json:"sum"`
	Count   uint64         `json:"count"`
}

// BucketUpper returns the exclusive upper value bound of bucket b.
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 1
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return 1 << b
}

// Mean returns the average observed value.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0,1], clamped) by linear
// interpolation inside the log2 bucket holding the target rank: the rank's
// position within the bucket's count maps linearly onto the bucket's value
// range [BucketUpper(b-1), BucketUpper(b)). Bucket 0 holds only the value
// 0, so ranks landing there return 0 exactly. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank == 0 {
		rank = 1 // p=0 selects the smallest observation's bucket
	}
	bs := make([]int, 0, len(s.Buckets))
	for b := range s.Buckets {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	var cum uint64
	for _, b := range bs {
		c := s.Buckets[b]
		if cum+c < rank {
			cum += c
			continue
		}
		if b == 0 {
			return 0
		}
		lower := float64(BucketUpper(b - 1))
		upper := float64(BucketUpper(b))
		return lower + (upper-lower)*float64(rank-cum)/float64(c)
	}
	return float64(BucketUpper(64)) // unreachable when Buckets sums to Count
}

// Add sums two readings bucket-wise, joining adjacent window deltas into
// the delta of the window that covers both; it undoes Delta.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Sum: s.Sum + o.Sum, Count: s.Count + o.Count}
	if len(s.Buckets)+len(o.Buckets) > 0 {
		out.Buckets = make(map[int]uint64, len(s.Buckets)+len(o.Buckets))
		for b, c := range s.Buckets {
			out.Buckets[b] = c
		}
		for b, c := range o.Buckets {
			out.Buckets[b] += c
		}
	}
	return out
}

// Delta subtracts prev bucket-wise (the measured window's distribution).
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{}
	if s.Sum > prev.Sum {
		d.Sum = s.Sum - prev.Sum
	}
	if s.Count > prev.Count {
		d.Count = s.Count - prev.Count
	}
	for b, c := range s.Buckets {
		p := prev.Buckets[b]
		if c > p {
			if d.Buckets == nil {
				d.Buckets = make(map[int]uint64)
			}
			d.Buckets[b] = c - p
		}
	}
	return d
}
