package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drp/internal/load"
	"drp/internal/metrics"
)

func TestNetRunSRA(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "5", "-objects", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", out.String())
	}
}

func TestNetRunNone(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "4", "-objects", "6", "-algo", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 replicas") {
		t.Fatalf("none policy placed replicas:\n%s", out.String())
	}
}

func TestNetRunGRA(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "5", "-objects", "6", "-algo", "gra", "-pop", "6", "-gens", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", out.String())
	}
}

func TestNetRunBadAlgo(t *testing.T) {
	if err := run([]string{"-algo", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNetRunMissingInput(t *testing.T) {
	if err := run([]string{"-in", "/does/not/exist"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestNetRunFaultPlan(t *testing.T) {
	plan := `{"seed":1,"events":[
		{"kind":"crash","site":1,"step":1,"until":20},
		{"kind":"latency","site":2,"step":1,"until":10,"delay_ms":1}
	]}`
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-sites", "5", "-objects", "8",
		"-fault-plan", path, "-retry", "3", "-req-timeout", "2s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"injecting 2 fault events",
		"reads served/failed",
		"writes served/queued",
		"cluster fully reconverged",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNetRunDurableRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sites", "5", "-objects", "8",
		"-data-dir", dir, "-fsync", "never", "-snapshot-every", "16"}

	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "persisting to "+dir) {
		t.Fatalf("fresh run did not announce persistence:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch:\n%s", first.String())
	}

	// A rerun on the same directory replays the WALs: the scheme is already
	// deployed, so the redeploy migration is free.
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "recovered 5 of 5 sites from "+dir) {
		t.Fatalf("rerun did not recover from disk:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "migration cost 0") {
		t.Fatalf("recovered scheme was re-shipped:\n%s", second.String())
	}
	if !strings.Contains(second.String(), "model and wire agree exactly") {
		t.Fatalf("model/wire mismatch after recovery:\n%s", second.String())
	}
}

func TestNetRunBadDurableFlags(t *testing.T) {
	if err := run([]string{"-sites", "4", "-objects", "6", "-snapshot-every", "8"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-snapshot-every without -data-dir accepted")
	}
	if err := run([]string{"-sites", "4", "-objects", "6",
		"-data-dir", t.TempDir(), "-fsync", "sometimes"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

func TestNetRunFaultPlanRejectsBadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"events":[{"kind":"crash","site":99,"step":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sites", "4", "-objects", "6", "-fault-plan", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("out-of-range fault plan accepted")
	}
}

func TestNetRunSLOGate(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sites", "4", "-objects", "6", "-slo", "p99<5s"}, &out); err != nil {
		t.Fatalf("generous latency gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `slo "p99<5s": PASS`) {
		t.Fatalf("gate verdict missing:\n%s", out.String())
	}

	out.Reset()
	err := run([]string{"-sites", "4", "-objects", "6", "-slo", "p50<1ns"}, &out)
	if err == nil || !strings.Contains(err.Error(), "SLO") {
		t.Fatalf("unmeetable gate did not fail the run: %v", err)
	}

	// err/tput terms need drpload's open-loop accounting.
	if err := run([]string{"-sites", "4", "-objects", "6", "-slo", "err<1%"}, &bytes.Buffer{}); err == nil {
		t.Fatal("err gate accepted by drpnet")
	}
	// The membership scenario has no single measurement period to gate.
	if err := run([]string{"-sites", "4", "-objects", "6", "-members", "0,1,2,3", "-slo", "p99<5s"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-slo with membership scenario accepted")
	}
}

// gatedRegistry holds the drp_net_request_seconds family with n reads of
// v seconds each.
func gatedRegistry(v float64, n int) *metrics.Registry {
	reg := metrics.NewRegistry()
	for _, op := range []string{"read", "write"} {
		reg.Histogram("drp_net_request_seconds", "", metrics.LatencyBuckets(), metrics.Labels{"op": op})
	}
	h := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "read"})
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
	return reg
}

// TestGateSLONeverUnderstates pins the gate to the histogram's
// never-understate quantile: a 10s p99 past the le ladder's 4s top must
// fail p99<5s, and a quantile between two nanoseconds rounds up.
func TestGateSLONeverUnderstates(t *testing.T) {
	slo, _ := load.ParseSLO("p99<5s")
	var out bytes.Buffer
	if err := gateSLO(slo, gatedRegistry(10, 100), &out); err == nil {
		t.Fatalf("10s p99 passed p99<5s:\n%s", out.String())
	}
	// 2^-13 s is 122070.3125ns, a bucket edge: the gate must see 122071ns,
	// where truncation would see 122070ns and pass.
	slo, _ = load.ParseSLO("read.p99<122071ns")
	out.Reset()
	if err := gateSLO(slo, gatedRegistry(math.Ldexp(1, -13), 100), &out); err == nil {
		t.Fatalf("fractional-nanosecond quantile truncated:\n%s", out.String())
	}
}
