package load

import (
	"math"
	"sort"
	"testing"
	"time"

	"drp/internal/metrics"
	"drp/internal/xrand"
)

// subBits is metrics.Histogram's log-linear resolution: each power-of-two
// band splits into 2^subBits buckets.
const subBits = 7

// maxRecordable caps generated latencies at an hour.
const maxRecordable = int64(time.Hour)

// exactQuantile is the oracle: the value of rank ⌈p·n⌉ in the sorted
// sample — precisely the element Quantile's bucket walk lands on.
func exactQuantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantileBoundsOK checks the histogram's advertised error contract:
// true ≤ estimate ≤ true·(1 + 2^-subBits) + 1.
func quantileBoundsOK(t *testing.T, name string, estimate float64, exact int64) {
	t.Helper()
	if estimate < float64(exact) {
		t.Errorf("%s: estimate %v understates exact %d", name, estimate, exact)
	}
	upper := float64(exact)*(1+1.0/(1<<subBits)) + 1
	if estimate > upper {
		t.Errorf("%s: estimate %v exceeds bound %.1f (exact %d)", name, estimate, upper, exact)
	}
}

// TestQuantileAgainstSortedOracle drives the histogram with several
// latency-shaped nanosecond distributions, recorded as drpload records
// them, and checks every quantile the report uses
// against the exact sorted-sample answer, at the documented relative
// error bound.
func TestQuantileAgainstSortedOracle(t *testing.T) {
	const n = 20_000
	quantiles := []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}
	dists := map[string]func(rng *xrand.Source) int64{
		"uniform_1ms": func(rng *xrand.Source) int64 { return int64(rng.Float64() * 1e6) },
		"exponential": func(rng *xrand.Source) int64 { return int64(-math.Log1p(-rng.Float64()) * 5e5) },
		"heavy_tail": func(rng *xrand.Source) int64 {
			v := int64(1e3 / math.Pow(1-rng.Float64(), 1.5))
			if v > maxRecordable {
				v = maxRecordable // keep the oracle and the recorder in the same domain
			}
			return v
		},
		"small_values": func(rng *xrand.Source) int64 { return int64(rng.Float64() * 100) },
		"constant":     func(rng *xrand.Source) int64 { return 42_000 },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(7)
			h := metrics.NewHistogram()
			values := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				v := gen(rng)
				h.Observe(float64(v))
				values = append(values, v)
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			for _, p := range quantiles {
				quantileBoundsOK(t, name, h.Quantile(p), exactQuantile(values, p))
			}
			if h.Count() != n {
				t.Fatalf("count = %d, want %d", h.Count(), n)
			}
			var sum int64
			for _, v := range values {
				sum += v
			}
			if h.Sum() != float64(sum) {
				t.Fatalf("sum = %v, want %d", h.Sum(), sum)
			}
			if h.Max() != float64(values[n-1]) {
				t.Fatalf("max = %v, want %d", h.Max(), values[n-1])
			}
		})
	}
}

// TestQuantileExactBelowLinearRange checks that small nanosecond values
// (below 2^(subBits+1), where every integer is a bucket edge) report
// quantiles with zero bucket error.
func TestQuantileExactBelowLinearRange(t *testing.T) {
	h := metrics.NewHistogram()
	for v := 0; v < 100; v++ {
		h.Observe(float64(v))
	}
	// Rank ⌈0.5·100⌉ = 50 → value 49, which closes its own bucket.
	if got := h.Quantile(0.50); got != 49 {
		t.Fatalf("p50 = %v, want 49", got)
	}
	if got := h.Quantile(1.0); got != 99 {
		t.Fatalf("p100 = %v, want 99", got)
	}
}

// TestEmptyHistogram checks the zero-observation edge cases.
func TestEmptyHistogram(t *testing.T) {
	h := metrics.NewHistogram()
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if s := summarize(h); s != (Summary{}) {
		t.Fatalf("empty summary: %+v", s)
	}
}
