// Command perfbench is the repository's benchmark. One run boots an
// in-process netnode cluster, deploys the SRA placement of a Section 6.1
// instance and replays that instance's own read/write traffic against it
// open loop, then solves a larger instance with GRA, adapts it with AGRA
// through a chain of Section 6.3 pattern shifts, and solves and adapts a
// sparse instance. Every phase is checked for correctness, and the last
// line of standard output is one JSON object with the run's metrics.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload paper-read --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with layer probes attached and reports the per-layer metrics.
// A human-readable report goes to standard error.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"drp"
	"drp/internal/core"
	"drp/internal/netnode"
	"drp/internal/trace"
)

// workload is one benchmark input: a serving half and a solver half.
type workload struct {
	serve servingSpec
	solve solveSpec
}

// solveAt is the solver half at capacity ratio c: the Section 6.1 instance
// with M=50, N=200, U=5%, adapted through five Section 6.3 daytime shifts
// (30% of the objects change by 600%, 70% of them towards reads), and a
// sparse M=100, N=2e5 instance adapted on 1% of its objects. At U=20% GRA
// finds no saving on this instance, so both workloads keep U=5% here and
// differ in how tightly capacity binds the search.
func solveAt(c float64) solveSpec {
	return solveSpec{
		Sites: 50, Objects: 200, Update: 0.05, Capacity: c,
		Shift:       drp.ChangeSpec{Ch: 6.0, ObjectShare: 0.3, ReadShare: 0.7},
		AdaptRounds: 5, MiniGenerations: 5,
		SparseSites: 100, SparseObjects: 200_000, SparseCapacity: c, SparseAdapt: 0.01,
	}
}

var workloads = map[string]workload{
	// Read-heavy paper instance on the memory store: most requests are
	// remote reads, so transport, codec and Node.handle do the serving
	// work and the store keeps no log.
	"paper-read": {
		serve: servingSpec{Sites: 8, Objects: 200, Update: 0.05, Capacity: 0.15, Rate: 4000},
		solve: solveAt(0.15),
	},
	// Write-heavier instance on durable stores: every request appends to
	// a WAL and writes fan out to replicas, so store and write-path
	// changes show here and not in paper-read. every:64 keeps the shared
	// disk's fsync latency from dominating the spread.
	"durable-write": {
		serve: servingSpec{Sites: 8, Objects: 200, Update: 0.20, Capacity: 0.50, Fsync: "every:64", Rate: 3000},
		solve: solveAt(0.50),
	},
}

const (
	// setupRuns is how often each set-up is repeated; setup_s is the
	// median, so one slow boot does not move it.
	setupRuns = 3
	// fixedShare of --seconds goes to the fixed-rate phase, rounded to
	// whole measurement periods (at least one).
	fixedShare = 0.5
	// satRounds is how many whole periods the saturation phase offers,
	// one at a time; max_rps is their median.
	satRounds = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: paper-read | durable-write")
	seed := fs.Uint64("seed", 1, "seed for the traffic, the arrival times, the solver seeds, the pattern shifts and the sparse instance")
	seconds := fs.Int("seconds", 20, "measurement length in seconds; sizes the fixed-rate phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a probed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	b := &bench{name: *name, w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, root: root, log: stderr}
	if err := b.run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := b.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named result.
type metric struct {
	name, unit string
	value      float64
}

// bench is one run's state and results.
type bench struct {
	name    string
	w       workload
	seed    uint64
	seconds int
	traced  bool
	root    string
	log     io.Writer

	metrics   []metric
	errs      []string
	attempted int
	failed    int
	self      []layerTime // traced runs
	transport float64     // seconds inside probed connections, fixed-rate phase
}

// layerTime is one layer's self time in seconds, by stage of the run.
type layerTime struct {
	stage, name string
	sec         float64
}

func (b *bench) add(name, unit string, v float64) {
	b.metrics = append(b.metrics, metric{name, unit, v})
}

func (b *bench) logf(format string, a ...any) { fmt.Fprintf(b.log, format+"\n", a...) }

// derive gives each generated input its own seed, a pure function of the
// run's seed.
func derive(seed, tag uint64) uint64 { return seed*1_000_003 + tag }

// instanceSeed fixes the dense Section 6.1 instances (topology and
// r_k(i)/w_k(i) matrices) of both halves of a workload. Across generator
// seeds the SRA placement's transfer cost per request ranges from 69 to
// 142 on the serving instance, a spread no regression bound could absorb,
// so --seed draws everything else: the request sequence, the arrival
// times, the solver seeds, the pattern shifts and the sparse instance.
const instanceSeed = 1

func (b *bench) run() error {
	start := time.Now()
	serveSetup, err := b.runServing()
	if err != nil {
		return err
	}
	solveSetup, err := b.runSolving()
	if err != nil {
		return err
	}
	if !b.traced {
		b.add("setup_s", "s", serveSetup+solveSetup)
		rss, err := peakRSSMiB()
		if err != nil {
			return fmt.Errorf("peak RSS: %w", err)
		}
		b.add("peak_rss_mb", "MiB", rss)
	} else {
		b.reportSelfTime()
	}
	b.logf("run took %.1fs", time.Since(start).Seconds())
	return nil
}

// runServing sets the cluster up several times, then drives the warm-up,
// the fixed-rate phase and the saturation rounds against the last one.
// It returns the median set-up time in seconds.
func (b *bench) runServing() (float64, error) {
	spec := b.w.serve
	var d *deployment
	var setups, sras, deploys []time.Duration
	for a := 0; a < setupRuns; a++ {
		if d != nil {
			d.close()
		}
		var err error
		d, err = setUp(spec, instanceSeed, siteDir(b.root, a))
		if err != nil {
			return 0, err
		}
		setups, sras, deploys = append(setups, d.total), append(sras, d.sra), append(deploys, d.deploy)
	}
	defer func() { d.close() }()

	p := d.p
	periodLen := len(trace.Generate(p, derive(b.seed, 1)).Requests)
	fixedPeriods := int(fixedShare*float64(b.seconds)*spec.Rate/float64(periodLen) + 0.5)
	if fixedPeriods < 1 {
		fixedPeriods = 1
	}
	var phases []phase
	phases = append(phases, buildPhase("warm-up", p, []uint64{derive(b.seed, 2)}, 0, 0))
	fixedSeeds := make([]uint64, fixedPeriods)
	for i := range fixedSeeds {
		fixedSeeds[i] = derive(b.seed, uint64(10+i))
	}
	phases = append(phases, buildPhase("fixed-rate", p, fixedSeeds, spec.Rate, derive(b.seed, 3)))
	for r := 0; r < satRounds; r++ {
		phases = append(phases, buildPhase(fmt.Sprintf("saturation %d", r+1), p, []uint64{derive(b.seed, uint64(100+r))}, 0, 0))
	}
	b.logf("workload %s seed %d: %d sites, %d objects, D=%d per period of %d requests",
		b.name, b.seed, p.Sites(), p.Objects(), d.scheme.Cost(), periodLen)
	b.logf("schedule digest %s (%d phases, %d fixed-rate periods at %.0f req/s)",
		scheduleDigest(p, phases), len(phases), fixedPeriods, spec.Rate)

	var probe *transportProbe
	if b.traced {
		probe = &transportProbe{}
		setDialers(d.cluster, probe.dial)
	}
	results := make([]*phaseResult, 0, len(phases))
	for i, ph := range phases {
		r, err := d.drive(ph, false)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", ph.name, err)
		}
		b.attempted += len(ph.reqs)
		b.failed += r.failed
		b.errs = append(b.errs, r.errs...)
		results = append(results, r)
		switch {
		case probe == nil:
		case i == 0:
			probe.snapshot() // drop the warm-up's connections
		case i == 1:
			b.transportMetrics(probe, r)
		}
	}
	fixed, sats := results[1], results[2:]
	var rps []float64
	for _, r := range sats {
		rps = append(rps, float64(len(r.ph.reqs))/r.out.Elapsed.Seconds())
	}

	if b.traced {
		// A second set of saturation rounds without the transport probe
		// gives the probe's overhead and a clean allocation count.
		setDialers(d.cluster, nil)
		var clean []float64
		var mallocs, bytes uint64
		var n int
		for r := 0; r < satRounds; r++ {
			ph := buildPhase(fmt.Sprintf("unprobed saturation %d", r+1), p, []uint64{derive(b.seed, uint64(200+r))}, 0, 0)
			res, err := d.drive(ph, true)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", ph.name, err)
			}
			b.attempted += len(ph.reqs)
			b.failed += res.failed
			b.errs = append(b.errs, res.errs...)
			clean = append(clean, float64(len(ph.reqs))/res.out.Elapsed.Seconds())
			mallocs, bytes, n = mallocs+res.mallocs, bytes+res.bytes, n+len(ph.reqs)
		}
		b.servingLayers(d, fixed, medianDur(sras), medianDur(deploys))
		b.add("load.trace_overhead_pct", "%", 100*(median(clean)-median(rps))/median(clean))
		b.add("netnode.allocs_per_req", "allocs/req", float64(mallocs)/float64(n))
		b.add("netnode.alloc_bytes_per_req", "B/req", float64(bytes)/float64(n))
	} else {
		reads, writes := latencies(fixed)
		b.add("read_p50_ms", "ms", windowedP50(fixed, false, fixed.out.Service))
		b.add("write_p50_ms", "ms", windowedP50(fixed, true, fixed.out.Service))
		b.add("max_rps", "req/s", median(rps))
		var ntc int64
		for _, c := range fixed.out.Cost {
			ntc += c
		}
		b.add("ntc_per_req", "NTC/req", float64(ntc)/float64(len(fixed.ph.reqs)))
		b.logf("fixed rate, from due time: read p50 %.3fms p99 %.3fms (n=%d), write p50 %.3fms p99 %.3fms (n=%d), dispatch lag p50 %.1fus p99 %.1fus",
			ms(quantile(reads, 0.5)), ms(quantile(reads, 0.99)), len(reads),
			ms(quantile(writes, 0.5)), ms(quantile(writes, 0.99)), len(writes),
			us(quantile(fixed.out.Lag, 0.5)), us(quantile(fixed.out.Lag, 0.99)))
		b.logf("saturation: %.0f req/s per round %v", median(rps), roundAll(rps))
	}

	if spec.Fsync != "" {
		reopen, errs, err := d.checkRecovery()
		if err != nil {
			return 0, err
		}
		b.errs = append(b.errs, errs...)
		b.logf("store.reopen_s %.4f (kill every site, replay every log; states byte-identical: %v)", reopen.Seconds(), len(errs) == 0)
	}
	return medianDur(setups), nil
}

// runSolving generates the solver instances several times, then runs the
// solve stage once. It returns the median generation time in seconds.
func (b *bench) runSolving() (float64, error) {
	var in *solveInputs
	var gens, sparseGens []time.Duration
	for a := 0; a < setupRuns; a++ {
		in = nil // so settle collects the previous attempt's inputs
		settle()
		var err error
		in, err = generateSolveInputs(b.w.solve, b.seed)
		if err != nil {
			return 0, err
		}
		gens, sparseGens = append(gens, in.total), append(sparseGens, in.sparseGen)
	}
	res, err := runSolve(b.w.solve, in, b.seed)
	if err != nil {
		return 0, err
	}
	b.attempted += res.solves
	b.errs = append(b.errs, res.errs...)
	b.logf("solve: GRA %.3fs (%.2f%% savings), %d adapt rounds %.3fs, sparse solve %.3fs (%.2f%% savings), sparse adapt %.3fs",
		res.gra, res.savings, len(in.shifted), res.adaptTotal,
		res.sparseSolve, res.sparseSavings, res.sparseAdapt.Seconds())
	if !b.traced {
		b.add("solve_s", "s", res.gra)
		b.add("savings_pct", "%", res.savings)
		b.add("adapt_s", "s", res.adapt)
		b.add("sparse_solve_s", "s", res.sparseSolve)
		b.add("sparse_savings_pct", "%", res.sparseSavings)
		return medianDur(gens), nil
	}
	full, delta := evalProbe(res.scheme)
	b.add("core.full_eval_us", "us", full)
	b.add("core.delta_eval_ns", "ns", delta)
	b.add("gra.generation_ms", "ms", 1e3*res.graTotal/float64(res.graGens))
	b.add("gra.evals_per_s", "1/s", float64(res.graEvals)/res.graTotal)
	b.add("agra.evals", "count", float64(res.adaptEvals))
	b.add("agra.per_object_ms", "ms", 1e3*res.adaptTotal/float64(res.adaptObjects))
	b.add("sparse.gen_s", "s", medianDur(sparseGens))
	b.add("sparse.evals_per_s", "1/s", float64(res.sparseEvals)/res.sparseTotal)
	b.add("sparse.adapt_ms", "ms", 1e3*res.sparseAdapt.Seconds())
	b.self = append(b.self,
		layerTime{"solve", "gra", res.graTotal},
		layerTime{"solve", "agra", res.adaptTotal},
		layerTime{"solve", "sparse", res.sparseTotal + res.sparseAdapt.Seconds()})
	return medianDur(gens), nil
}

// setDialers installs d as every node's outbound dialer (nil restores the
// default).
func setDialers(c *netnode.Cluster, d netnode.Dialer) {
	for i := 0; i < c.Sites(); i++ {
		c.Node(i).SetDialer(d)
	}
}

// latencyWindows is how many equal slices of the fixed-rate phase, by due
// time, the reported medians are taken over.
const latencyWindows = 10

// windowedP50 is the median over the phase's time windows of each
// window's median of vs (per-request nanoseconds) for one op, in ms. A
// disturbance from outside the program that lasts a few windows moves it
// little, where it would move the pooled median.
//
// The end-to-end latencies pass the call times (Outcome.Service), not the
// times from the due time: on a two-core guest the hypervisor steals the
// CPU for milliseconds at a time, and with two issuing workers every
// such stall queues the requests due behind it, so the median from the
// due time moved fourfold between runs of identical code. The due-time
// latencies stay in the per-layer metrics.
func windowedP50(r *phaseResult, write bool, vs []int64) float64 {
	span := r.ph.reqs[len(r.ph.reqs)-1].At + 1
	wins := make([][]int64, latencyWindows)
	for i, req := range r.ph.reqs {
		if req.Write == write && r.out.Err[i] == nil {
			w := int(req.At * latencyWindows / span)
			wins[w] = append(wins[w], vs[i])
		}
	}
	p50s := make([]float64, 0, latencyWindows)
	for _, w := range wins {
		if len(w) > 0 {
			p50s = append(p50s, ms(quantile(w, 0.5)))
		}
	}
	return median(p50s)
}

// latencies splits a phase's served request latencies by op.
func latencies(r *phaseResult) (reads, writes []int64) {
	for i, req := range r.ph.reqs {
		if r.out.Err[i] != nil {
			continue
		}
		if req.Write {
			writes = append(writes, r.out.Latency[i])
		} else {
			reads = append(reads, r.out.Latency[i])
		}
	}
	return reads, writes
}

// transportMetrics reads the transport probe after the fixed-rate phase.
func (b *bench) transportMetrics(probe *transportProbe, r *phaseResult) {
	dialNs, ioNs, bytes := probe.snapshot()
	var dialSum int64
	for _, d := range dialNs {
		dialSum += d
	}
	n := float64(len(r.ph.reqs))
	b.add("transport.dials_per_req", "dials/req", float64(len(dialNs))/n)
	b.add("transport.dial_us", "us", us(quantile(dialNs, 0.5)))
	b.add("transport.bytes_per_rpc", "B/rpc", ratio(float64(bytes), float64(r.layers.rpcs)))
	b.transport = float64(dialSum+ioNs) / 1e9
}

// servingLayers records the per-layer metrics of the fixed-rate phase.
func (b *bench) servingLayers(d *deployment, r *phaseResult, sraSec, deploySec float64) {
	var readLocal, readRemote, writeLocal, writeRemote []int64
	var queued, service int64
	for i, req := range r.ph.reqs {
		queued += r.out.Latency[i] - r.out.Service[i]
		service += r.out.Service[i]
		switch {
		case r.out.Err[i] != nil:
		case req.Write && d.p.Primary(req.Obj) == req.Site:
			writeLocal = append(writeLocal, r.out.Service[i])
		case req.Write:
			writeRemote = append(writeRemote, r.out.Service[i])
		case r.out.Cost[i] == 0:
			readLocal = append(readLocal, r.out.Service[i])
		default:
			readRemote = append(readRemote, r.out.Service[i])
		}
	}
	reads, writes := latencies(r)
	n := float64(len(r.ph.reqs))
	lc := r.layers
	b.add("load.dispatch_lag_p50_us", "us", us(quantile(r.out.Lag, 0.5)))
	b.add("load.dispatch_lag_p99_us", "us", us(quantile(r.out.Lag, 0.99)))
	b.add("load.read_p50_ms", "ms", windowedP50(r, false, r.out.Latency))
	b.add("load.write_p50_ms", "ms", windowedP50(r, true, r.out.Latency))
	b.add("load.read_p99_ms", "ms", ms(quantile(reads, 0.99)))
	b.add("load.write_p99_ms", "ms", ms(quantile(writes, 0.99)))
	b.add("netnode.read_local_us", "us", us(quantile(readLocal, 0.5)))
	b.add("netnode.read_remote_us", "us", us(quantile(readRemote, 0.5)))
	b.add("netnode.read_remote_p99_us", "us", us(quantile(readRemote, 0.99)))
	b.add("netnode.write_local_us", "us", us(quantile(writeLocal, 0.5)))
	b.add("netnode.write_remote_us", "us", us(quantile(writeRemote, 0.5)))
	b.add("netnode.read_remote_frac", "ratio", ratio(float64(lc.remoteReads), float64(lc.reads)))
	b.add("netnode.rpcs_per_req", "rpc/req", float64(lc.rpcs)/n)
	b.add("netnode.syncs_per_write", "sync/write", ratio(float64(lc.syncs), float64(len(writes))))
	b.add("netnode.deploy_s", "s", deploySec)
	b.add("store.appends_per_req", "appends/req", float64(lc.appends)/n)
	b.add("store.fsyncs_per_req", "fsyncs/req", float64(lc.fsyncs)/n)
	b.add("sra.solve_ms", "ms", 1e3*sraSec)

	appendUS, err := storeAppendUS(b.root)
	if err != nil {
		b.errs = append(b.errs, err.Error())
	}
	for _, pol := range []string{"always", "every64", "never", "memory"} {
		b.add("store.append_us."+pol, "us", appendUS[pol])
	}
	inc, obs := metricsNS()
	b.add("metrics.counter_inc_ns", "ns", inc)
	b.add("metrics.observe_ns", "ns", obs)
	off, on := spansNS()
	b.add("spans.finish_ns.off", "ns", off)
	b.add("spans.finish_ns.on", "ns", on)

	// Self time of the serving layers over the fixed-rate phase: load is
	// the wait between a request's due time and its call, transport the
	// time inside the probed connections (dials, and reads that wait for
	// the peer), netnode the rest of the client call.
	netSelf := float64(service)/1e9 - b.transport
	if netSelf < 0 {
		netSelf = 0
	}
	b.self = append(b.self,
		layerTime{"serve", "load", float64(queued) / 1e9},
		layerTime{"serve", "transport", b.transport},
		layerTime{"serve", "netnode", netSelf},
		layerTime{"setup", "sra", sraSec})
}

// reportSelfTime prints the layers by self time and names the largest,
// over the whole run and within each stage.
func (b *bench) reportSelfTime() {
	sort.SliceStable(b.self, func(i, j int) bool { return b.self[i].sec > b.self[j].sec })
	var total float64
	for _, l := range b.self {
		total += l.sec
	}
	b.logf("layer self time:")
	top := map[string]string{}
	for _, l := range b.self {
		b.logf("  %-6s %-10s %8.3fs  %5.1f%%", l.stage, l.name, l.sec, 100*ratio(l.sec, total))
		if top[l.stage] == "" {
			top[l.stage] = l.name
		}
	}
	if len(b.self) > 0 {
		b.logf("dominant layer: %s (serving: %s, solving: %s)", b.self[0].name, top["serve"], top["solve"])
	}
}

func roundAll(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%.0f", v)
	}
	return out
}

// scheduleDigest fingerprints the instance and every request of every
// phase, so two runs can be shown to have driven identical traffic.
func scheduleDigest(p *core.Problem, phases []phase) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(p.Sites()))
	put(int64(p.Objects()))
	put(p.DPrime())
	for _, ph := range phases {
		put(int64(len(ph.reqs)))
		for _, r := range ph.reqs {
			put(int64(r.Site))
			put(int64(r.Obj))
			if r.Write {
				put(1)
			} else {
				put(0)
			}
			put(int64(r.At))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// print writes the error summary to the log and the result line to out.
func (b *bench) print(out io.Writer) error {
	for _, e := range b.errs {
		b.logf("CHECK FAILED: %s", e)
	}
	b.logf("error_frac %.6f (%d of %d requests and solves failed)", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(b.metrics))
	var lines []string
	for _, m := range b.metrics {
		ms[m.name] = value{m.value, m.unit}
		lines = append(lines, fmt.Sprintf("  %-28s %14.6f %s", m.name, m.value, m.unit))
	}
	b.logf("metrics:\n%s", strings.Join(lines, "\n"))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.errs) == 0, b.attempted, b.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
