package metrics

import (
	"math"
	"sync/atomic"
)

// The histogram's log-linear layout. Read as an integer, a positive
// float64's bits grow with its value, and dropping all but the top subBits
// mantissa bits keys the value on its binary exponent plus a linear
// sub-bucket: every power-of-two band splits into 2^subBits buckets of
// equal width, so a bucket's upper edge overstates any value in it by at
// most a factor 1+2^-subBits (≈0.8%). Keying bits-1 instead of bits makes
// buckets upper-inclusive, (lo, hi]: a value exactly on an edge lands in
// the bucket that edge closes.
const (
	subBits = 7
	shift   = 52 - subBits
	// The covered range is (2^minExp, 2^maxExp]: a nanosecond in seconds
	// sits above the floor and every integer a float64 holds exactly sits
	// below the ceiling.
	minExp = -32
	maxExp = 53
	keyLo  = (minExp+1023)<<subBits - 1 // key of the bucket closing at 2^minExp
	nSpan  = (maxExp-minExp)<<subBits + 1
	// Index 0 holds zero, negative and NaN values (edge 0); 1..nSpan are
	// the covered buckets, 1 also catching positive values below the
	// range; nSpan+1 catches values beyond it, +Inf included.
	numBuckets = nSpan + 2
)

// bucketIndex maps a value to its bucket, clamping into the edge buckets.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	i := int((math.Float64bits(v)-1)>>shift) - keyLo + 1
	return min(max(i, 1), nSpan+1)
}

// bucketEdge returns bucket i's inclusive upper edge; the overflow
// bucket's is +Inf.
func bucketEdge(i int) float64 {
	switch {
	case i == 0:
		return 0
	case i > nSpan:
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(i+keyLo) << shift)
}

// isEdge reports whether b closes a bucket, so counts at b are exact.
func isEdge(b float64) bool {
	i := bucketIndex(b)
	return i <= nSpan && bucketEdge(i) == b
}

// Rank returns the 1-indexed nearest rank ⌈p·n⌉ of the p-quantile among n
// ascending samples, clamped to [1, n]; p ≤ 0 or NaN picks the smallest.
// Every quantile in the repository uses this rule: Histogram.Quantile
// reports the bucket holding this rank, exact-sample quantiles index it.
func Rank(p float64, n int) int {
	r := math.Ceil(p * float64(n))
	if !(r >= 1) {
		return 1
	}
	if r >= float64(n) {
		return n
	}
	return int(r)
}

// Histogram is the repository's one streaming histogram: concurrent and
// HDR log-linear (see subBits). Count, Sum and Max are exact; a value that
// is negative, NaN or outside the covered range is clamped into an edge
// bucket, never dropped. Quantile never understates: it reports the upper
// edge of the bucket holding the ranked value, true ≤ q ≤ true·(1+2^-7)
// across the covered range, and the exact Max beyond it. Safe for
// concurrent use; the zero value is not usable — call NewHistogram or
// Registry.Histogram.
type Histogram struct {
	counts  [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// NewHistogram returns an empty histogram outside any registry.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Max moves before the bucket and the bucket
// before Count, so a reader that sees an observation counted also sees its
// bucket and its maximum.
func (h *Histogram) Observe(v float64) {
	for old := h.maxBits.Load(); v > math.Float64frombits(old); old = h.maxBits.Load() {
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns an upper bound on the p-quantile: the upper edge of the
// bucket holding the observation of rank Rank(p, Count()), or Max when
// that bucket is the overflow. An empty histogram reports 0.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(Rank(p, int(n)))
	var seen uint64
	for i := range h.counts[:nSpan+1] {
		if seen += h.counts[i].Load(); seen >= rank {
			return bucketEdge(i)
		}
	}
	return h.Max()
}

// cumulative returns, for each bound of an ascending ladder of bucket
// edges, the number of observations ≤ it — exact, because each bound
// closes a bucket.
func (h *Histogram) cumulative(bounds []float64) []uint64 {
	out := make([]uint64, len(bounds))
	var cum uint64
	i := 0
	for j, b := range bounds {
		for end := bucketIndex(b); i <= end; i++ {
			cum += h.counts[i].Load()
		}
		out[j] = cum
	}
	return out
}
