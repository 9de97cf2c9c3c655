package main

import (
	"testing"
	"time"
)

// stallTarget answers at once, except that a call made inside the stall
// window blocks until the window ends, as a system-wide pause would.
type stallTarget struct {
	start    time.Time
	from, to time.Duration
}

func (t *stallTarget) serve() (int64, error) {
	if now := time.Since(t.start); now >= t.from && now < t.to {
		time.Sleep(t.to - now)
	}
	return 1, nil
}

func (t *stallTarget) Read(site, obj int) (int64, error)  { return t.serve() }
func (t *stallTarget) Write(site, obj int) (int64, error) { return t.serve() }

func steady(n int, gap time.Duration) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Obj: i, Write: i%10 == 0, At: time.Duration(i) * gap}
	}
	return reqs
}

func p99(t *testing.T, stall time.Duration) (latency, service int64) {
	t.Helper()
	target := &stallTarget{start: time.Now(), from: 100 * time.Millisecond, to: 100*time.Millisecond + stall}
	out, err := Run(target, steady(4000, 100*time.Microsecond), maxWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() != 0 {
		t.Fatalf("%d requests failed", out.Failed())
	}
	for i, c := range out.Cost {
		if c != 1 {
			t.Fatalf("request %d: cost %d, want 1", i, c)
		}
	}
	return quantile(out.Latency, 0.99), quantile(out.Service, 0.99)
}

// A stall delays every request due while it lasts. Measured from the
// intended send time, those requests' wait shows in p99; measured from the
// moment a worker got to them, as a closed-loop client would, it does not.
func TestInjectedStallRaisesP99(t *testing.T) {
	const stall = 60 * time.Millisecond
	base, _ := p99(t, 0)
	lat, svc := p99(t, stall)
	if lat < (stall / 2).Nanoseconds() {
		t.Errorf("p99 with a %v stall is %v, want at least %v", stall, time.Duration(lat), stall/2)
	}
	if lat <= 2*base {
		t.Errorf("p99 with a stall %v is not well above p99 without %v", time.Duration(lat), time.Duration(base))
	}
	if svc >= lat/2 {
		t.Errorf("service-time p99 %v should miss the stall that latency p99 %v shows", time.Duration(svc), time.Duration(lat))
	}
}

func TestRunRejectsMoreThanTwoWorkers(t *testing.T) {
	if _, err := Run(&stallTarget{start: time.Now()}, steady(10, 0), maxWorkers+1); err == nil {
		t.Fatal("Run accepted three workers")
	}
	if _, err := Run(&stallTarget{start: time.Now()}, nil, 1); err == nil {
		t.Fatal("Run accepted an empty schedule")
	}
}

func TestRunRecordsDispatchLag(t *testing.T) {
	out, err := Run(&stallTarget{start: time.Now()}, steady(200, 500*time.Microsecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, lag := range out.Lag {
		if lag < 0 {
			t.Fatalf("request %d dispatched %v before it was due", i, time.Duration(-lag))
		}
		if out.Latency[i] < out.Service[i] {
			t.Fatalf("request %d: latency %d below service time %d", i, out.Latency[i], out.Service[i])
		}
	}
	if out.Elapsed < 199*500*time.Microsecond {
		t.Fatalf("elapsed %v shorter than the schedule", out.Elapsed)
	}
}
