package spans

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"drp/internal/metrics"
)

// TreeSpan is a span linked into its trace tree.
type TreeSpan struct {
	Span
	Children []*TreeSpan
}

// Trace is one assembled request tree. Roots normally holds exactly one
// span (a request mints one root); spans whose parent never appeared
// (truncated files) surface as extra roots rather than being dropped.
type Trace struct {
	ID    string
	Roots []*TreeSpan
	Count int // spans in the trace
}

// Root returns the primary root span (earliest start).
func (t *Trace) Root() *TreeSpan { return t.Roots[0] }

// NTC sums the transfer cost over every span in the trace. Because
// each span records only the cost it directly caused, the sum has no
// double counting and equals the accounted eq. 4 cost of the request.
func (t *Trace) NTC() int64 {
	var total int64
	for _, r := range t.Roots {
		walk(r, func(n *TreeSpan) { total += n.Span.NTC })
	}
	return total
}

// Dur returns the primary root's duration.
func (t *Trace) Dur() int64 { return t.Root().Dur() }

func walk(n *TreeSpan, f func(*TreeSpan)) {
	f(n)
	for _, c := range n.Children {
		walk(c, f)
	}
}

// Walk visits every span in the trace, parents before children.
func (t *Trace) Walk(f func(*TreeSpan)) {
	for _, r := range t.Roots {
		walk(r, f)
	}
}

// Assemble groups spans by trace ID and links parent/child edges.
// Traces are ordered by their root's start time (ties by trace ID) and
// children by start time, so the result is deterministic regardless of
// input order.
func Assemble(sps []Span) []*Trace {
	nodes := make(map[string]*TreeSpan, len(sps))
	order := make([]string, 0, len(sps))
	byTrace := make(map[string][]*TreeSpan)
	for i := range sps {
		n := &TreeSpan{Span: sps[i]}
		if _, dup := nodes[n.ID]; dup {
			// Duplicate span IDs come only from corrupted input; keep
			// the first occurrence.
			continue
		}
		nodes[n.ID] = n
		order = append(order, n.ID)
		byTrace[n.Trace] = append(byTrace[n.Trace], n)
	}
	var traces []*Trace
	for _, id := range order {
		n := nodes[id]
		if n.Parent != "" {
			if p, ok := nodes[n.Parent]; ok && p.Trace == n.Trace {
				p.Children = append(p.Children, n)
				continue
			}
		}
		// Root, or orphan whose parent is missing from the stream.
		tr := findTrace(&traces, n.Trace)
		tr.Roots = append(tr.Roots, n)
	}
	for _, tr := range traces {
		tr.Count = len(byTrace[tr.ID])
		sortTree(tr.Roots)
	}
	sort.Slice(traces, func(a, b int) bool {
		sa, sb := traces[a].Root().Start, traces[b].Root().Start
		if sa != sb {
			return sa < sb
		}
		return traces[a].ID < traces[b].ID
	})
	return traces
}

func findTrace(traces *[]*Trace, id string) *Trace {
	for _, t := range *traces {
		if t.ID == id {
			return t
		}
	}
	t := &Trace{ID: id}
	*traces = append(*traces, t)
	return t
}

func sortTree(ns []*TreeSpan) {
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].Start != ns[b].Start {
			return ns[a].Start < ns[b].Start
		}
		return ns[a].ID < ns[b].ID
	})
	for _, n := range ns {
		sortTree(n.Children)
	}
}

// CriticalPath walks from the root to a leaf, at each level descending
// into the child that finishes last (the one the parent was waiting
// on), and returns the spans along that path, root first.
func CriticalPath(root *TreeSpan) []*TreeSpan {
	path := []*TreeSpan{root}
	for n := root; len(n.Children) > 0; {
		last := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.End > last.End || (c.End == last.End && c.Start > last.Start) {
				last = c
			}
		}
		path = append(path, last)
		n = last
	}
	return path
}

// EdgeStat aggregates every span sharing a name: latency quantiles (in
// clock units) and the total transfer cost attributed at that edge.
type EdgeStat struct {
	Name     string
	Count    int
	Errors   int
	P50      int64
	P99      int64
	Max      int64
	TotalNTC int64
}

// Edges computes per-span-name statistics across traces, sorted by name.
func Edges(traces []*Trace) []EdgeStat {
	durs := make(map[string][]int64)
	stats := make(map[string]*EdgeStat)
	for _, t := range traces {
		t.Walk(func(n *TreeSpan) {
			st := stats[n.Name]
			if st == nil {
				st = &EdgeStat{Name: n.Name}
				stats[n.Name] = st
			}
			st.Count++
			if n.Err != "" {
				st.Errors++
			}
			st.TotalNTC += n.Span.NTC
			durs[n.Name] = append(durs[n.Name], n.Dur())
		})
	}
	out := make([]EdgeStat, 0, len(stats))
	for name, st := range stats {
		ds := durs[name]
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		st.P50 = rankQuantile(ds, 0.50)
		st.P99 = rankQuantile(ds, 0.99)
		st.Max = ds[len(ds)-1]
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// rankQuantile is the nearest-rank quantile of an ascending slice.
func rankQuantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[metrics.Rank(p, len(sorted))-1]
}

// Slowest returns up to n traces ordered by root duration, longest
// first (ties by trace order, which is start order).
func Slowest(traces []*Trace, n int) []*Trace {
	out := make([]*Trace, len(traces))
	copy(out, traces)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dur() > out[b].Dur() })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Label renders the span's topology fields compactly for reports.
func (n *TreeSpan) Label() string {
	var b strings.Builder
	b.WriteString(n.Name)
	var parts []string
	if n.Site >= 0 {
		parts = append(parts, fmt.Sprintf("site=%d", n.Site))
	}
	if n.Peer >= 0 {
		parts = append(parts, fmt.Sprintf("peer=%d", n.Peer))
	}
	if n.Object >= 0 {
		parts = append(parts, fmt.Sprintf("obj=%d", n.Object))
	}
	if n.Hop >= 0 {
		parts = append(parts, fmt.Sprintf("hop=%d", n.Hop))
	}
	if n.Attempt >= 0 {
		parts = append(parts, fmt.Sprintf("try=%d", n.Attempt))
	}
	if len(parts) > 0 {
		b.WriteString("(" + strings.Join(parts, " ") + ")")
	}
	return b.String()
}

// Waterfall renders the trace as an indented tree with proportional
// bars: each span's bar is offset and scaled within the root's
// [start, end] window. Deterministic for deterministic input.
func Waterfall(w io.Writer, t *Trace) {
	const width = 32
	root := t.Root()
	span := root.End - root.Start
	if span <= 0 {
		span = 1
	}
	fmt.Fprintf(w, "trace %s %s dur=%d ntc=%d\n", t.ID, root.Label(), root.Dur(), t.NTC())
	var render func(n *TreeSpan, depth int)
	render = func(n *TreeSpan, depth int) {
		off := int(float64(n.Start-root.Start) / float64(span) * width)
		length := int(float64(n.End-n.Start) / float64(span) * width)
		if length < 1 {
			length = 1
		}
		if off > width-1 {
			off = width - 1
		}
		if off+length > width {
			length = width - off
		}
		bar := strings.Repeat(" ", off) + strings.Repeat("#", length) +
			strings.Repeat(" ", width-off-length)
		line := strings.Repeat("  ", depth) + n.Label()
		if n.Span.NTC > 0 {
			line += fmt.Sprintf(" ntc=%d", n.Span.NTC)
		}
		if n.Verdict != "" {
			line += " verdict=" + n.Verdict
		}
		if n.Err != "" {
			line += fmt.Sprintf(" err=%q", n.Err)
		}
		fmt.Fprintf(w, "  [%s] %-4d %s\n", bar, n.Dur(), line)
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		render(r, 0)
	}
}
