package metrics

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, series
// sorted by label string, histograms as cumulative _bucket/_sum/_count
// series. The output is a pure function of the registry state, so two
// registries with equal deterministic instruments render identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, e := range r.sorted() {
		if e.name != lastFamily {
			if e.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
			lastFamily = e.name
		}
		switch e.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", e.name, e.labelStr, e.counter.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", e.name, e.labelStr, formatFloat(e.gauge.Value()))
		case KindHistogram:
			h := e.hist
			for i, cum := range h.cumulative(e.bounds) {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", e.name, withLE(e.labels, formatFloat(e.bounds[i])), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", e.name, withLE(e.labels, "+Inf"), h.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.name, e.labelStr, formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, e.labelStr, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE renders labels plus the histogram bucket's le dimension.
func withLE(labels Labels, le string) string {
	merged := make(Labels, len(labels)+1)
	for k, v := range labels {
		merged[k] = v
	}
	merged["le"] = le
	return renderLabels(merged)
}

// formatFloat renders floats the way Prometheus clients expect: integers
// without an exponent or trailing zeros, everything else in shortest form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as text/plain Prometheus exposition — mount
// it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// expvarMu serialises publication checks: expvar.Publish panics on
// duplicate names, and CLI tests run several instrumented runs per process.
var expvarMu sync.Mutex

// PublishExpvar publishes the registry under the given expvar name (it then
// appears in /debug/vars as a JSON snapshot). Publishing the same name
// twice is a no-op — the first registry wins — because expvar's global
// namespace cannot be unpublished.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
