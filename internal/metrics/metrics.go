// Package metrics is the repository's zero-dependency telemetry layer: a
// concurrency-safe registry of named instruments (monotonic counters,
// last-value gauges, log-linear histograms) with Prometheus text-format
// exposition, expvar publication, deterministic JSON snapshots, a JSONL
// structured-event sink and a bridge from the solver runtime's progress
// events.
//
// The determinism contract mirrors the solver runtime's boundary-only
// discipline (DESIGN.md §7): instrumentation never draws randomness and
// never feeds back into a solver's decisions, so an instrumented run is
// bit-identical to an uninstrumented one at any worker count. Counter adds
// and histogram observations commute, and every histogram in this
// repository observes integer-valued quantities (NTC units) whose float64
// sums stay exact below 2^53 — so counter and histogram snapshots of a
// deterministic run are themselves identical at any worker count, which the
// tests pin. Gauges are last-writer-wins and timing instruments measure
// wall clock; both are excluded from determinism comparisons (see
// Snapshot.Deterministic).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument types.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Labels attach constant dimensions to an instrument. Instruments with the
// same name but different label sets are distinct time series of one family
// and must share a kind.
type Labels map[string]string

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: counter add of negative %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-writer-wins float value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (gauges may go down).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// addFloat adds d to the float64 stored as bits, by CAS loop.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// ExponentialBuckets returns count ascending bounds start, start·factor,
// start·factor², … — the Prometheus le ladders every histogram family in
// this repository renders. start must be positive and factor > 1; a
// registered ladder must also consist of bucket edges (see
// Registry.Histogram), which powers of two times short mantissas are.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("metrics: bad exponential buckets (start=%v factor=%v count=%d)", start, factor, count))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 2^-13 s (≈122µs) .. 4s in doublings — request
// latencies and adaptation wall times in seconds.
func LatencyBuckets() []float64 { return ExponentialBuckets(math.Ldexp(1, -13), 2, 16) }

// CostBuckets spans 1 .. ~2.7e11 NTC units in powers of four — per-request
// transfer costs and best-so-far scheme costs.
func CostBuckets() []float64 { return ExponentialBuckets(1, 4, 20) }

// entry is one registered instrument.
type entry struct {
	name     string
	help     string
	labels   Labels
	labelStr string // rendered {k="v",...}, sorted by key; "" when unlabelled
	kind     Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	bounds  []float64 // hist's le ladder, for exposition only
}

// Registry holds named instruments. Instrument getters are get-or-create:
// the first call registers, later calls with the same (name, labels) return
// the same instrument; a kind conflict panics (programmer error, as with
// expvar). The zero Registry is not usable — call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	e := r.get(name, help, labels, KindCounter)
	return e.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	e := r.get(name, help, labels, KindGauge)
	return e.gauge
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use with bounds as the family's le ladder. The ladder only
// shapes exposition — Prometheus and snapshot buckets are rendered from the
// histogram's log-linear counts — so every bound must be a bucket edge
// (counts at an edge are exact). Later calls may pass nil bounds; non-nil
// bounds that disagree with the registered ones panic.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	if e, ok := r.entries[key]; ok {
		if e.kind != KindHistogram {
			panic(fmt.Sprintf("metrics: %s already registered as %s", key, e.kind))
		}
		if bounds != nil && !equalBounds(bounds, e.bounds) {
			panic(fmt.Sprintf("metrics: %s re-registered with different bounds", key))
		}
		return e.hist
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs bucket bounds", key))
	}
	for i, b := range bounds {
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending", key))
		}
		if !isEdge(b) {
			panic(fmt.Sprintf("metrics: histogram %s bound %v is not a bucket edge", key, b))
		}
	}
	h := NewHistogram()
	r.register(key, &entry{name: name, help: help, labels: copyLabels(labels), labelStr: renderLabels(labels), kind: KindHistogram, hist: h, bounds: append([]float64(nil), bounds...)})
	return h
}

func (r *Registry) get(name, help string, labels Labels, kind Kind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered as %s, requested %s", key, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, help: help, labels: copyLabels(labels), labelStr: renderLabels(labels), kind: kind}
	switch kind {
	case KindCounter:
		e.counter = &Counter{}
	case KindGauge:
		e.gauge = &Gauge{}
	}
	r.register(key, e)
	return e
}

func (r *Registry) register(key string, e *entry) {
	checkName(e.name)
	for k := range e.labels {
		checkName(k)
	}
	// A family (shared name) must keep one kind across label sets; scan is
	// fine at this registry's size.
	for _, other := range r.entries {
		if other.name == e.name && other.kind != e.kind {
			panic(fmt.Sprintf("metrics: family %s mixes kinds %s and %s", e.name, other.kind, e.kind))
		}
	}
	r.entries[key] = e
}

// sorted returns the entries ordered by (name, labelStr) — the single
// deterministic ordering behind exposition and snapshots.
func (r *Registry) sorted() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelStr < out[j].labelStr
	})
	return out
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// renderLabels serialises a label set as {k="v",k2="v2"} with keys sorted;
// empty sets render as "".
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkName enforces the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid name %q", name))
		}
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
