package obs

import (
	"math/bits"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	for _, p := range []float64{0, 0.5, 1} {
		if q := s.Quantile(p); q != 0 {
			t.Fatalf("empty Quantile(%v) = %v", p, q)
		}
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(700) // bucket 10: [512, 1024)
	}
	s := h.Snapshot()
	lo, hi := float64(512), float64(1024)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		q := s.Quantile(p)
		if q < lo || q > hi {
			t.Fatalf("Quantile(%v) = %v outside bucket [%v,%v)", p, q, lo, hi)
		}
	}
	// Interpolation is monotone in p.
	if s.Quantile(0.1) > s.Quantile(0.9) {
		t.Fatal("quantile not monotone")
	}
	// p=1 hits the bucket's upper bound exactly (rank == count).
	if q := s.Quantile(1); q != hi {
		t.Fatalf("Quantile(1) = %v, want %v", q, hi)
	}
}

func TestQuantileEdges(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1
	h.Observe(1000) // bucket 10
	s := h.Snapshot()
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %v, want 0 (smallest observation is 0)", q)
	}
	if q := s.Quantile(1); q < 512 || q > 1024 {
		t.Fatalf("Quantile(1) = %v, want within [512,1024]", q)
	}
	// Out-of-range p clamps instead of panicking.
	if q := s.Quantile(-3); q != s.Quantile(0) {
		t.Fatalf("p<0 not clamped: %v", q)
	}
	if q := s.Quantile(7); q != s.Quantile(1) {
		t.Fatalf("p>1 not clamped: %v", q)
	}
	// Median lands in the middle bucket: value 1 lives in [1,2).
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("Quantile(0.5) = %v, want within [1,2]", q)
	}
}

// A histogram has a single owner, so every snapshot taken between
// observations is exact: count, sum and buckets equal what was observed
// so far, and the registry's reading agrees with the histogram's.
func TestHistogramSnapshotExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("exact")
	var sum uint64
	buckets := map[int]uint64{}
	for i := 0; i < 20000; i++ {
		v := uint64(i % 4096)
		h.Observe(v)
		sum += v
		buckets[bits.Len64(v)]++
		if i%512 != 0 {
			continue
		}
		n := uint64(i + 1)
		for _, s := range []HistSnapshot{h.Snapshot(), r.Snapshot().Hists["exact"]} {
			if s.Count != n || s.Sum != sum || len(s.Buckets) != len(buckets) {
				t.Fatalf("after %d observations: snapshot %+v, want count %d sum %d over %d buckets",
					n, s, n, sum, len(buckets))
			}
			for b, c := range buckets {
				if s.Buckets[b] != c {
					t.Fatalf("after %d observations: bucket %d = %d, want %d", n, b, s.Buckets[b], c)
				}
			}
		}
	}
	if h.Count() != 20000 || h.Snapshot().Sum != sum {
		t.Fatalf("final count %d sum %d, want 20000 and %d", h.Count(), h.Snapshot().Sum, sum)
	}
}

// Add joins adjacent window deltas: adding a later window back onto the
// earlier reading gives the later reading, bucket for bucket.
func TestHistSnapshotAddUndoesDelta(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(700)
	s1 := h.Snapshot()
	h.Observe(700)
	h.Observe(5)
	s2 := h.Snapshot()
	got := s1.Add(s2.Delta(s1))
	if got.Count != s2.Count || got.Sum != s2.Sum || len(got.Buckets) != len(s2.Buckets) {
		t.Fatalf("s1 + (s2 - s1) = %+v, want %+v", got, s2)
	}
	for b, c := range s2.Buckets {
		if got.Buckets[b] != c {
			t.Fatalf("bucket %d = %d, want %d", b, got.Buckets[b], c)
		}
	}
	if e := (HistSnapshot{}).Add(HistSnapshot{}); e.Buckets != nil || e.Count != 0 {
		t.Fatalf("empty + empty = %+v", e)
	}
}
