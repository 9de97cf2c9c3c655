package load

import (
	"strings"
	"testing"
	"time"

	"drp/internal/metrics"
)

// resultWithLatencies builds a result whose read/write histograms hold
// the given millisecond samples.
func resultWithLatencies(readMS, writeMS []int64, failed, queued, unexplained int64) *Result {
	res := &Result{ReadHist: metrics.NewHistogram(), WriteHist: metrics.NewHistogram()}
	for _, ms := range readMS {
		res.ReadHist.Observe(float64(ms * int64(time.Millisecond)))
		res.ReadsOK++
	}
	for _, ms := range writeMS {
		res.WriteHist.Observe(float64(ms * int64(time.Millisecond)))
		res.WritesOK++
	}
	res.ReadsFailed = failed
	res.WritesQueued = queued
	res.Unexplained = unexplained
	res.Offered = 100
	res.Achieved = 95
	return res
}

func TestParseSLORejectsGarbage(t *testing.T) {
	for _, expr := range []string{
		"p98<5ms",        // unknown quantile
		"p99<abc",        // bad duration
		"p99<-3ms",       // negative bound
		"p99>5ms",        // wrong comparator for latency
		"err<150%",       // outside [0,100%]
		"err<x",          // not a number
		"tput>-5%",       // negative
		"p99<5ms,,err<1", // empty term
		"latency<5ms",    // unknown term
	} {
		if _, err := ParseSLO(expr); err == nil {
			t.Errorf("ParseSLO(%q) accepted", expr)
		}
	}
}

func TestParseSLOEmptyIsVacuous(t *testing.T) {
	slo, err := ParseSLO("  ")
	if err != nil || slo != nil {
		t.Fatalf("empty expression: slo=%v err=%v", slo, err)
	}
	res := resultWithLatencies([]int64{1}, nil, 0, 0, 0)
	if out := slo.Eval(res); !out.Pass || len(out.Terms) != 0 {
		t.Fatalf("nil SLO must pass vacuously: %+v", out)
	}
}

func TestSLOEvalLatencyGates(t *testing.T) {
	// 100 reads: 97 at 1ms and three 100ms stragglers, so the p99 rank
	// (⌈0.99·100⌉ = 99) lands inside the straggler tail; writes all fast.
	readMS := make([]int64, 97)
	for i := range readMS {
		readMS[i] = 1
	}
	readMS = append(readMS, 100, 100, 100)
	// Writes stay at 1ms: a 2ms sample's bucket upper edge slightly
	// exceeds 2ms, which would trip the joint p50<2ms case below.
	res := resultWithLatencies(readMS, []int64{1, 1, 1}, 0, 0, 0)

	cases := []struct {
		expr string
		pass bool
	}{
		{"p50<5ms", true},
		{"p99<50ms", false},      // straggler breaks the joint gate
		{"write.p99<50ms", true}, // scoped to writes it passes
		{"read.p99<50ms", false}, // scoped to reads it fails
		{"p99<200ms", true},      // generous bound passes
		{"p99.9<200ms,p50<2ms", true},
		{"p999<50ms", false},
	}
	for _, tc := range cases {
		slo, err := ParseSLO(tc.expr)
		if err != nil {
			t.Fatalf("ParseSLO(%q): %v", tc.expr, err)
		}
		if out := slo.Eval(res); out.Pass != tc.pass {
			t.Errorf("%q: pass=%v want %v (%+v)", tc.expr, out.Pass, tc.pass, out.Terms)
		}
	}
}

func TestSLOEvalErrorAndThroughputGates(t *testing.T) {
	// 97 served + 2 failed reads + 1 queued write = 3% degraded.
	res := resultWithLatencies(make([]int64, 87), make([]int64, 10), 2, 1, 0)

	for _, tc := range []struct {
		expr string
		pass bool
	}{
		{"err<5%", true},
		{"err<3%", false}, // exactly 3% is not under 3%
		{"err<0.02", false},
		{"tput>90%", true}, // 95/100 achieved
		{"tput>0.96", false},
	} {
		slo, err := ParseSLO(tc.expr)
		if err != nil {
			t.Fatalf("ParseSLO(%q): %v", tc.expr, err)
		}
		if out := slo.Eval(res); out.Pass != tc.pass {
			t.Errorf("%q: pass=%v want %v (%+v)", tc.expr, out.Pass, tc.pass, out.Terms)
		}
	}
}

func TestSLOResultRendersInReport(t *testing.T) {
	res := resultWithLatencies([]int64{1, 2, 3}, []int64{1}, 0, 0, 0)
	slo, err := ParseSLO("p99<1us")
	if err != nil {
		t.Fatal(err)
	}
	pr := DefaultProfile()
	sched := &Schedule{Sites: 2, Objects: 3, Reads: 3, Writes: 1,
		Requests: make([]Request, 4)}
	rep := BuildReport("sra", pr, sched, res, slo, nil)
	if rep.SLO.Pass {
		t.Fatal("1µs gate must fail against millisecond latencies")
	}
	text := rep.Text()
	for _, want := range []string{"FAIL", "VIOLATED", "p99<1us"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}
