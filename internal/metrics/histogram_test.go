package metrics

import (
	"encoding/binary"
	"io"
	"math"
	"sort"
	"sync"
	"testing"
)

// TestHistogramQuantileNeverUnderstates checks quantiles on the latency
// ladder drpnet's -slo gate reads: a constant 190µs, which falls between
// two le bounds, must not report a smaller p50, and a 10s p99, past the
// ladder's 4s top, must not clamp to it.
func TestHistogramQuantileNeverUnderstates(t *testing.T) {
	for _, c := range []struct {
		v, p float64
	}{{190e-6, 0.5}, {10, 0.99}} {
		h := NewRegistry().Histogram("drp_lat_seconds", "", LatencyBuckets(), nil)
		for i := 0; i < 100; i++ {
			h.Observe(c.v)
		}
		if got := h.Quantile(c.p); got < c.v || got > c.v*(1+1.0/(1<<subBits)) {
			t.Errorf("constant %v: p%g = %v, want within [%v, %v·(1+2^-7)]", c.v, 100*c.p, got, c.v, c.v)
		}
	}
}

// TestBucketIndexMonotoneAndAligned walks the value range checking the
// index is monotone and every value lands inside its bucket's (lo, hi].
func TestBucketIndexMonotoneAndAligned(t *testing.T) {
	prev := 0
	for v := 1e-9; v < 1e12; v *= 1.0009 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%v) = %d < previous %d", v, i, prev)
		}
		prev = i
		if lo, hi := bucketEdge(i-1), bucketEdge(i); !(v > lo && v <= hi) {
			t.Fatalf("value %v outside bucket %d bounds (%v, %v]", v, i, lo, hi)
		}
	}
	for _, b := range append(LatencyBuckets(), CostBuckets()...) {
		if !isEdge(b) {
			t.Fatalf("ladder bound %v is not a bucket edge", b)
		}
	}
	if bucketIndex(math.Ldexp(1, maxExp)) != nSpan || bucketIndex(math.Inf(1)) != nSpan+1 {
		t.Fatal("top of the covered range or +Inf misplaced")
	}
}

// TestObserveClamps checks the never-drop contract at both extremes and
// for inputs with no place on the value line.
func TestObserveClamps(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{-5, math.NaN(), math.Inf(-1), 1e-300, 1e300} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5 (clamped, not dropped)", h.Count())
	}
	if h.Max() != 1e300 || h.Quantile(1) != 1e300 {
		t.Fatalf("max/p100 = %v/%v, want the exact 1e300", h.Max(), h.Quantile(1))
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0 (the zero bucket)", got)
	}
	if got := h.Quantile(0.8); got != math.Ldexp(1, minExp) {
		t.Fatalf("p80 = %v, want the floor edge 2^%d", got, minExp)
	}
}

func TestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{{0.5, 10, 5}, {0.51, 10, 6}, {0.99, 100, 99}, {0.999, 100, 100}, {0, 7, 1}, {-1, 7, 1}, {math.NaN(), 7, 1}, {2, 7, 7}} {
		if got := Rank(c.p, c.n); got != c.want {
			t.Errorf("Rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// TestHistogramConcurrentObserveAndScrape races observers against the two
// readers a live /metrics endpoint runs; under -race it also proves the
// histogram needs no lock.
func TestHistogramConcurrentObserveAndScrape(t *testing.T) {
	const workers, per = 8, 2000
	r := NewRegistry()
	h := r.Histogram("drp_lat_seconds", "", LatencyBuckets(), nil)
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
				_ = r.WritePrometheus(io.Discard)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-scraped
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != h.Count() {
		t.Fatalf("bucket total = %d, count = %d", total, h.Count())
	}
	if want := float64(workers*per-1) * 1e-6; h.Max() != want {
		t.Fatalf("max = %v, want %v", h.Max(), want)
	}
}

// FuzzHistogram checks the histogram against a sorted-sample oracle on
// arbitrary float64 inputs: quantiles never understate and overstate by at
// most 2^-7 inside the covered range, Count, Sum and Max are exact, and
// NaN, negative and infinite inputs neither panic nor drop an observation.
func FuzzHistogram(f *testing.F) {
	enc := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(190e-6, 190e-6, 190e-6))
	f.Add(enc(10, 10, 10, 1))
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 1e9))
	f.Add(enc(math.NaN(), -1, math.Inf(1), math.Inf(-1), 0, 5e-324))
	f.Add(enc(0.5, 1, 5, 10, 50, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistogram()
		var sample []float64
		sum, maxV := 0.0, math.Inf(-1)
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			h.Observe(v)
			sum += v
			if v > maxV {
				maxV = v
			}
			if !(v > 0) {
				v = 0 // NaN and negatives share the zero bucket
			}
			sample = append(sample, v)
		}
		n := len(sample)
		if h.Count() != uint64(n) {
			t.Fatalf("count = %d, want %d", h.Count(), n)
		}
		if n == 0 {
			if h.Quantile(0.5) != 0 || h.Max() != 0 {
				t.Fatal("empty histogram must report zeros")
			}
			return
		}
		if got := h.Sum(); got != sum && !(math.IsNaN(got) && math.IsNaN(sum)) {
			t.Fatalf("sum = %v, want %v", got, sum)
		}
		if h.Max() != maxV {
			t.Fatalf("max = %v, want %v", h.Max(), maxV)
		}
		sort.Float64s(sample)
		floor, ceil := math.Ldexp(1, minExp), math.Ldexp(1, maxExp)
		for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := min(max(int(math.Ceil(p*float64(n))), 1), n)
			exact, q := sample[rank-1], h.Quantile(p)
			if q < exact {
				t.Fatalf("p%g = %v understates exact %v", 100*p, q, exact)
			}
			var limit float64
			switch {
			case exact == 0:
				limit = 0
			case exact <= floor:
				limit = floor
			case exact <= ceil:
				limit = exact * (1 + 1.0/(1<<subBits))
			default:
				limit = maxV
			}
			if q > limit {
				t.Fatalf("p%g = %v exceeds bound %v (exact %v)", 100*p, q, limit, exact)
			}
		}
	})
}
