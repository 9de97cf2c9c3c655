package metrics

import (
	"encoding/json"
	"io"
	"os"
)

// Bucket is one cumulative histogram bucket: the count of observations
// less than or equal to the upper bound LE. The implicit +Inf bucket is not
// materialised — its cumulative count equals the instrument's Count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// InstrumentSnapshot is the frozen state of one instrument.
type InstrumentSnapshot struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Help   string            `json:"help,omitempty"`

	// Value carries counters (integral) and gauges.
	Value float64 `json:"value,omitempty"`

	// Count/Sum/Buckets carry histograms; Buckets renders the family's le
	// ladder. P50/P99 are Histogram.Quantile at freeze time: upper edges of
	// the log-linear buckets holding the ranked observations, never below
	// the true quantile and at most 2^-7 above it — finer than Buckets.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	P50     float64  `json:"p50,omitempty"`
	P99     float64  `json:"p99,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, ordered by (name,
// labels) so equal registry states marshal to equal bytes.
type Snapshot struct {
	Instruments []InstrumentSnapshot `json:"instruments"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	entries := r.sorted()
	out := Snapshot{Instruments: make([]InstrumentSnapshot, 0, len(entries))}
	for _, e := range entries {
		is := InstrumentSnapshot{Name: e.name, Kind: e.kind, Labels: e.labels, Help: e.help}
		switch e.kind {
		case KindCounter:
			is.Value = float64(e.counter.Value())
		case KindGauge:
			is.Value = e.gauge.Value()
		case KindHistogram:
			h := e.hist
			is.Count = h.Count()
			is.Sum = h.Sum()
			for i, c := range h.cumulative(e.bounds) {
				is.Buckets = append(is.Buckets, Bucket{LE: e.bounds[i], Count: c})
			}
			is.P50 = h.Quantile(0.50)
			is.P99 = h.Quantile(0.99)
		}
		out.Instruments = append(out.Instruments, is)
	}
	return out
}

// CounterValue looks up a counter by name and exact label set and
// returns its integral value. The second result is false when no such
// instrument exists (or it is not a counter) — snapshot-file consumers
// like drpload's cross-check use it to audit archived runs.
func (s Snapshot) CounterValue(name string, labels map[string]string) (int64, bool) {
	for _, is := range s.Instruments {
		if is.Name != name || is.Kind != KindCounter || len(is.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if is.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return int64(is.Value), true
		}
	}
	return 0, false
}

// Filter returns the snapshot restricted to instruments keep accepts,
// preserving order.
func (s Snapshot) Filter(keep func(InstrumentSnapshot) bool) Snapshot {
	out := Snapshot{}
	for _, is := range s.Instruments {
		if keep(is) {
			out.Instruments = append(out.Instruments, is)
		}
	}
	return out
}

// Deterministic keeps only the instruments covered by the determinism
// contract — counters and histograms, whose updates commute — dropping
// gauges (last-writer-wins) and any *_seconds series (wall clock). Two
// instrumented runs of the same seeded workload produce equal Deterministic
// snapshots at any worker count.
func (s Snapshot) Deterministic() Snapshot {
	return s.Filter(func(is InstrumentSnapshot) bool {
		if is.Kind == KindGauge {
			return false
		}
		return !timingName(is.Name)
	})
}

func timingName(name string) bool {
	for _, suffix := range []string{"_seconds", "_seconds_total", "_per_second"} {
		if len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSnapshotFile dumps the registry's snapshot to path — the CLI
// `-metrics-out` implementation.
func WriteSnapshotFile(r *Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.Snapshot().WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadSnapshotFile loads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
