package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// SLO is a parsed service-level objective: a conjunction of gate terms
// evaluated against a run's result. The drpload expression grammar is a
// comma-separated list of terms:
//
//	p99<250ms          latency gate on reads AND writes (p50, p90, p99, p999)
//	read.p99<5ms       latency gate scoped to one op (read. / write.)
//	err<0.5%           failed+queued+unexplained requests under 0.5% of total
//	tput>95%           achieved throughput at least 95% of offered
//
// Latency values take any time.ParseDuration suffix.
type SLO struct {
	Expr  string
	terms []sloTerm
}

type sloTerm struct {
	raw      string
	kind     string  // "latency", "err", "tput"
	op       string  // "read", "write", "" = both (latency only)
	quantile float64 // latency only
	bound    float64 // ns for latency, fraction for err/tput
}

// quantileNames maps term prefixes to quantiles.
var quantileNames = map[string]float64{
	"p50":   0.50,
	"p90":   0.90,
	"p99":   0.99,
	"p999":  0.999,
	"p99.9": 0.999,
}

// ParseSLO parses an SLO expression. An empty expression yields a nil
// SLO, which every run satisfies.
func ParseSLO(expr string) (*SLO, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return nil, nil
	}
	slo := &SLO{Expr: expr}
	for _, raw := range strings.Split(expr, ",") {
		term := strings.TrimSpace(raw)
		if term == "" {
			return nil, fmt.Errorf("load: empty SLO term in %q", expr)
		}
		switch {
		case strings.HasPrefix(term, "err<"):
			frac, err := parsePercent(term[len("err<"):])
			if err != nil {
				return nil, fmt.Errorf("load: SLO term %q: %w", term, err)
			}
			slo.terms = append(slo.terms, sloTerm{raw: term, kind: "err", bound: frac})
		case strings.HasPrefix(term, "tput>"):
			frac, err := parsePercent(term[len("tput>"):])
			if err != nil {
				return nil, fmt.Errorf("load: SLO term %q: %w", term, err)
			}
			slo.terms = append(slo.terms, sloTerm{raw: term, kind: "tput", bound: frac})
		default:
			t, err := parseLatencyTerm(term)
			if err != nil {
				return nil, err
			}
			slo.terms = append(slo.terms, t)
		}
	}
	return slo, nil
}

func parseLatencyTerm(term string) (sloTerm, error) {
	t := sloTerm{raw: term, kind: "latency"}
	rest := term
	if strings.HasPrefix(rest, "read.") {
		t.op, rest = "read", rest[len("read."):]
	} else if strings.HasPrefix(rest, "write.") {
		t.op, rest = "write", rest[len("write."):]
	}
	name, bound, ok := strings.Cut(rest, "<")
	if !ok {
		return t, fmt.Errorf("load: SLO term %q: want <quantile><<duration>, err<pct%%> or tput><pct%%>", term)
	}
	q, ok := quantileNames[name]
	if !ok {
		return t, fmt.Errorf("load: SLO term %q: unknown quantile %q (p50, p90, p99, p999)", term, name)
	}
	d, err := time.ParseDuration(bound)
	if err != nil || d <= 0 {
		return t, fmt.Errorf("load: SLO term %q: bad latency bound %q", term, bound)
	}
	t.quantile = q
	t.bound = float64(d.Nanoseconds())
	return t, nil
}

// parsePercent parses "0.5%" or "0.005" into a fraction in [0,1].
func parsePercent(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	if pct {
		v /= 100
	}
	if v < 0 || v > 1 || v != v {
		return 0, fmt.Errorf("percentage %q outside [0,100%%]", s)
	}
	return v, nil
}

// TermResult reports one gate term's evaluation.
type TermResult struct {
	Term   string  `json:"term"`
	Actual float64 `json:"actual"` // ms for latency terms, fraction otherwise
	Bound  float64 `json:"bound"`
	Pass   bool    `json:"pass"`
}

// SLOResult is the report's SLO attainment section.
type SLOResult struct {
	Expr  string       `json:"expr"`
	Pass  bool         `json:"pass"`
	Terms []TermResult `json:"terms"`
}

// HasNonLatency reports whether the expression contains err or tput
// terms — gates that need the open-loop runner's own accounting and
// cannot be evaluated from latency instruments alone.
func (s *SLO) HasNonLatency() bool {
	if s == nil {
		return false
	}
	for _, t := range s.terms {
		if t.kind != "latency" {
			return true
		}
	}
	return false
}

// EvalQuantiles checks the expression's latency terms against an
// external quantile source — fn returns the measured quantile in
// nanoseconds for op "read" or "write" — so a tool holding only
// drp_net_request_seconds histograms can reuse the same gate grammar.
// err/tput terms fail (callers reject them up front via HasNonLatency).
func (s *SLO) EvalQuantiles(fn func(op string, p float64) float64) SLOResult {
	return s.eval(nil, fn)
}

// Eval checks every term against the result. A nil SLO passes vacuously
// with no terms.
func (s *SLO) Eval(res *Result) SLOResult {
	return s.eval(res, func(op string, p float64) float64 {
		if op == "write" {
			return res.WriteHist.Quantile(p)
		}
		return res.ReadHist.Quantile(p)
	})
}

// eval checks latency terms against q (unprefixed terms take the worse
// of the two ops) and err/tput terms against res, failing them when res
// is nil.
func (s *SLO) eval(res *Result, q func(op string, p float64) float64) SLOResult {
	if s == nil {
		return SLOResult{Pass: true}
	}
	out := SLOResult{Expr: s.Expr, Pass: true}
	for _, t := range s.terms {
		tr := TermResult{Term: t.raw}
		switch {
		case t.kind == "latency":
			var ns float64
			if t.op == "" {
				ns = math.Max(q("read", t.quantile), q("write", t.quantile))
			} else {
				ns = q(t.op, t.quantile)
			}
			tr.Actual = ns / 1e6
			tr.Bound = t.bound / 1e6
			tr.Pass = ns < t.bound
		case res == nil: // err/tput need the runner's own accounting
		case t.kind == "err":
			total := res.Requests()
			frac := 0.0
			if total > 0 {
				frac = float64(res.ReadsFailed+res.WritesQueued+res.Unexplained) / float64(total)
			}
			tr.Actual, tr.Bound = frac, t.bound
			tr.Pass = frac < t.bound || (t.bound == 0 && frac == 0)
		case t.kind == "tput":
			ratio := 0.0
			if res.Offered > 0 {
				ratio = res.Achieved / res.Offered
			}
			tr.Actual, tr.Bound = ratio, t.bound
			tr.Pass = ratio > t.bound
		}
		if !tr.Pass {
			out.Pass = false
		}
		out.Terms = append(out.Terms, tr)
	}
	return out
}
