package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAddAndInc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help", nil)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_total", "help", nil); again != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("test_total", "", nil).Add(-1)
}

func TestGaugeSetAdd(t *testing.T) {
	g := NewRegistry().Gauge("test", "", nil)
	g.Set(2.5)
	g.Add(-1.0)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test", "", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 1066.5 {
		t.Fatalf("sum = %v, want 1066.5", got)
	}
	// Bounds are inclusive upper limits: cumulative counts 2, 4, 5, +Inf 6.
	snap := r.Snapshot().Instruments[0]
	wantCum := []uint64{2, 4, 5}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
}

func TestHistogramBoundsConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test", "", []float64{1, 2}, nil)
	if h := r.Histogram("test", "", nil, nil); h == nil {
		t.Fatal("nil bounds on re-get should return the instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting bounds did not panic")
		}
	}()
	r.Histogram("test", "", []float64{1, 3}, nil)
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("test", "", nil)
}

func TestFamilyKindMixPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test", "", Labels{"a": "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("family kind mix did not panic")
		}
	}()
	r.Gauge("test", "", Labels{"a": "2"})
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	NewRegistry().Counter("bad name", "", nil)
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(LatencyBuckets()); n != 16 {
		t.Fatalf("latency buckets = %d, want 16", n)
	}
	if n := len(CostBuckets()); n != 20 {
		t.Fatalf("cost buckets = %d, want 20", n)
	}
}

func TestRenderLabelsSortedAndEscaped(t *testing.T) {
	got := renderLabels(Labels{"b": "x\"y", "a": "p\\q\nr"})
	want := `{a="p\\q\nr",b="x\"y"}`
	if got != want {
		t.Fatalf("renderLabels = %s, want %s", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("drp_reqs_total", "Requests.", Labels{"op": "read"}).Add(3)
	r.Counter("drp_reqs_total", "Requests.", Labels{"op": "write"}).Add(1)
	r.Gauge("drp_live", "Live value.", nil).Set(0.5)
	h := r.Histogram("drp_lat", "Latency.", []float64{1, 2}, nil)
	h.Observe(1)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP drp_reqs_total Requests.\n",
		"# TYPE drp_reqs_total counter\n",
		`drp_reqs_total{op="read"} 3` + "\n",
		`drp_reqs_total{op="write"} 1` + "\n",
		"# TYPE drp_live gauge\n",
		"drp_live 0.5\n",
		"# TYPE drp_lat histogram\n",
		`drp_lat_bucket{le="1"} 1` + "\n",
		`drp_lat_bucket{le="2"} 1` + "\n",
		`drp_lat_bucket{le="+Inf"} 2` + "\n",
		"drp_lat_sum 6\n",
		"drp_lat_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear once per family, not once per series.
	if n := strings.Count(out, "# TYPE drp_reqs_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
}

func TestSnapshotDeterministicFilters(t *testing.T) {
	r := NewRegistry()
	r.Counter("drp_work_total", "", nil).Inc()
	r.Gauge("drp_live", "", nil).Set(1)
	r.Gauge("drp_rate_per_second", "", nil).Set(9)
	r.Histogram("drp_adapt_seconds", "", []float64{1}, nil).Observe(0.2)
	r.Histogram("drp_cost", "", []float64{1}, nil).Observe(0.5)

	det := r.Snapshot().Deterministic()
	var names []string
	for _, is := range det.Instruments {
		names = append(names, is.Name)
	}
	if len(names) != 2 || names[0] != "drp_cost" || names[1] != "drp_work_total" {
		t.Fatalf("deterministic snapshot kept %v, want [drp_cost drp_work_total]", names)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("drp_work_total", "Work.", Labels{"k": "v"}).Add(7)
	r.Histogram("drp_cost", "Cost.", []float64{1, 2}, nil).Observe(1.5)

	path := t.TempDir() + "/snap.json"
	if err := WriteSnapshotFile(r, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Instruments) != 2 {
		t.Fatalf("round trip kept %d instruments, want 2", len(got.Instruments))
	}
	if got.Instruments[1].Value != 7 || got.Instruments[1].Labels["k"] != "v" {
		t.Fatalf("counter snapshot corrupted: %+v", got.Instruments[1])
	}
	if got.Instruments[0].Count != 1 || got.Instruments[0].Buckets[1].Count != 1 {
		t.Fatalf("histogram snapshot corrupted: %+v", got.Instruments[0])
	}
}

func TestEventLogJSONL(t *testing.T) {
	var b strings.Builder
	l := NewEventLog(&b)
	l.Emit("alpha", map[string]any{"x": 1})
	l.Emit("beta", nil)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0] != `{"event":"alpha","seq":1,"x":1}` {
		t.Fatalf("line 1 = %s", lines[0])
	}
	if lines[1] != `{"event":"beta","seq":2}` {
		t.Fatalf("line 2 = %s", lines[1])
	}
}

func TestEventLogEncodeError(t *testing.T) {
	var b strings.Builder
	NewEventLog(&b).Emit("bad", map[string]any{"f": math.NaN()})
	if !strings.Contains(b.String(), "metrics.encode_error") {
		t.Fatalf("unencodable field not recorded: %s", b.String())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("drp_work_total", "", nil).Inc()
				r.Histogram("drp_cost", "", []float64{1, 10}, nil).Observe(float64(j % 20))
				r.Gauge("drp_live", "", nil).Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("drp_work_total", "", nil).Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("drp_cost", "", nil, nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("drp_q", "", []float64{10, 20, 40}, nil)

	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}

	// Small integers sit on bucket edges, so quantiles report them exactly.
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	// p50 is rank ⌈0.5·10⌉ = 5 → the value 5.
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}

	// Add 10 observations of 30: p75 is rank 15 of 20 → 30.
	for i := 0; i < 10; i++ {
		h.Observe(30)
	}
	if got := h.Quantile(0.75); got != 30 {
		t.Fatalf("p75 = %v, want 30", got)
	}

	// Mass beyond the le ladder keeps its own bucket: p100 reports the
	// edge above 1e9, not the top ladder bound 40.
	h.Observe(1e9)
	if got := h.Quantile(1); got < 1e9 || got > 1e9*(1+1.0/(1<<subBits)) {
		t.Fatalf("p100 with mass past the ladder = %v, want within 2^-7 above 1e9", got)
	}

	// Out-of-range p clamps to the smallest rank rather than panicking.
	if got := h.Quantile(-1); got != 1 {
		t.Fatalf("p(-1) = %v, want the smallest value 1", got)
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("drp_q", "", []float64{10, 20}, nil)
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	s := r.Snapshot()
	if len(s.Instruments) != 1 {
		t.Fatalf("instruments = %d, want 1", len(s.Instruments))
	}
	is := s.Instruments[0]
	if is.P50 != h.Quantile(0.5) || is.P99 != h.Quantile(0.99) {
		t.Fatalf("snapshot p50/p99 = %v/%v, want %v/%v", is.P50, is.P99, h.Quantile(0.5), h.Quantile(0.99))
	}
	if is.P50 != 5 {
		t.Fatalf("p50 = %v, want 5", is.P50)
	}
}
