package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"drp"
	"drp/internal/core"
	"drp/internal/load"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/store"
	"drp/internal/trace"
	"drp/internal/xrand"
)

// servingSpec is the data-plane half of a workload: the Section 6.1
// instance the cluster serves, its store, and the fixed offered rate.
type servingSpec struct {
	Sites, Objects   int
	Update, Capacity float64
	Fsync            string // "" for the memory store, else a durable policy
	Rate             float64
}

// deployment is one booted cluster serving the SRA placement.
type deployment struct {
	p       *core.Problem
	scheme  *core.Scheme
	cluster *netnode.Cluster
	reg     *metrics.Registry
	dir     string // "" for the memory store
	opts    store.Options

	total, sra, deploy time.Duration
}

// setUp generates the instance, solves SRA, boots the cluster and deploys
// the placement: everything a user pays before the first request.
func setUp(spec servingSpec, seed uint64, dir string) (*deployment, error) {
	start := time.Now()
	p, err := drp.Generate(drp.NewSpec(spec.Sites, spec.Objects, spec.Update, spec.Capacity), seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t := time.Now()
	scheme := drp.SRA(p).Scheme
	d := &deployment{p: p, scheme: scheme, reg: metrics.NewRegistry(), sra: time.Since(t)}
	netnode.RegisterMetricFamilies(d.reg)
	store.RegisterMetricFamilies(d.reg)
	if spec.Fsync == "" {
		d.cluster, err = netnode.StartLocal(p)
	} else {
		policy, every, perr := store.ParseSyncPolicy(spec.Fsync)
		if perr != nil {
			return nil, perr
		}
		d.dir = dir
		d.opts = store.Options{Sync: policy, SyncEvery: every, Metrics: d.reg}
		d.cluster, err = netnode.StartDurable(p, dir, d.opts)
	}
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	d.cluster.EnableMetrics(d.reg)
	t = time.Now()
	if _, err := d.cluster.Deploy(scheme); err != nil {
		d.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d.deploy = time.Since(t)
	d.total = time.Since(start)
	return d, nil
}

func (d *deployment) close() {
	d.cluster.Close()
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // scratch state under the run directory
	}
}

// counter reads one registry counter.
func (d *deployment) counter(name string, labels metrics.Labels) int64 {
	return d.reg.Counter(name, "", labels).Value()
}

// layerCounters are the program's own counters a phase is diffed against.
type layerCounters struct {
	remoteReads, reads, rpcs, syncs, appends, fsyncs int64
}

func (d *deployment) layerCounters() layerCounters {
	msgs := func(op string) int64 { return d.counter("drp_net_messages_total", metrics.Labels{"op": op}) }
	reads := func(src string) int64 {
		return d.counter("drp_net_replica_reads_total", metrics.Labels{"source": src})
	}
	return layerCounters{
		remoteReads: reads("remote"),
		reads:       reads("remote") + reads("local"),
		rpcs:        msgs("read") + msgs("update") + msgs("sync"),
		syncs:       msgs("sync"),
		appends:     d.counter("drp_store_appends_total", nil),
		fsyncs:      d.counter("drp_store_fsyncs_total", nil),
	}
}

func (a layerCounters) sub(b layerCounters) layerCounters {
	return layerCounters{
		remoteReads: a.remoteReads - b.remoteReads,
		reads:       a.reads - b.reads,
		rpcs:        a.rpcs - b.rpcs,
		syncs:       a.syncs - b.syncs,
		appends:     a.appends - b.appends,
		fsyncs:      a.fsyncs - b.fsyncs,
	}
}

// phase is one schedule driven against the cluster, with the trace it was
// built from so its transfer cost can be recomputed independently.
type phase struct {
	name    string
	reqs    []Request
	trace   *trace.Trace
	periods int // whole measurement periods, 0 for a partial warm-up
}

// buildPhase expands the problem's r_k(i)/w_k(i) counts into one
// measurement period per seed and concatenates them. rate > 0 spaces
// the requests with Poisson arrivals at that rate; rate == 0 offers them
// all at the phase start.
func buildPhase(name string, p *core.Problem, seeds []uint64, rate float64, arrivalSeed uint64) phase {
	ph := phase{name: name, trace: &trace.Trace{}, periods: len(seeds)}
	for _, s := range seeds {
		ph.trace.Requests = append(ph.trace.Requests, trace.Generate(p, s).Requests...)
	}
	ph.reqs = requestsOf(ph.trace, rate, arrivalSeed)
	return ph
}

func requestsOf(tr *trace.Trace, rate float64, arrivalSeed uint64) []Request {
	rng := xrand.New(arrivalSeed)
	reqs := make([]Request, len(tr.Requests))
	var at float64 // seconds
	for i, r := range tr.Requests {
		if rate > 0 {
			at += -math.Log(1-rng.Float64()) / rate
		}
		reqs[i] = Request{Site: r.Site, Obj: r.Object, Write: r.Op == trace.OpWrite, At: time.Duration(at * 1e9)}
	}
	return reqs
}

// phaseResult is a driven phase with its gates evaluated.
type phaseResult struct {
	ph      phase
	out     *Outcome
	layers  layerCounters
	mallocs uint64
	bytes   uint64
	failed  int
	errs    []string
}

// drive runs one phase and checks its gates: every request served, the
// accounted transfer cost equal to an independent replay of the phase's
// trace (and to eq. 4's D per period for whole periods), and the
// cluster's drp_net_* counters equal to the runner's own tallies.
func (d *deployment) drive(ph phase, withMem bool) (*phaseResult, error) {
	before := load.CaptureNetCounters(d.reg)
	lcBefore := d.layerCounters()
	var msBefore runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&msBefore)
	}
	out, err := Run(load.ClusterTarget{C: d.cluster}, ph.reqs, maxWorkers)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{ph: ph, out: out, layers: d.layerCounters().sub(lcBefore)}
	if withMem {
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		res.mallocs = msAfter.Mallocs - msBefore.Mallocs
		res.bytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	}

	tally := &load.Result{}
	for i, r := range ph.reqs {
		switch {
		case out.Err[i] != nil:
			res.failed++
			if len(res.errs) < 3 {
				res.errs = append(res.errs, out.Err[i].Error())
			}
		case r.Write:
			tally.WritesOK++
			tally.NTCWrite += out.Cost[i]
		default:
			tally.ReadsOK++
			tally.NTCRead += out.Cost[i]
		}
	}
	if res.failed > 0 {
		res.errs = append([]string{fmt.Sprintf("%s: %d requests failed", ph.name, res.failed)}, res.errs...)
		return res, nil
	}
	want := trace.Replay(d.scheme, ph.trace).NTC
	if got := tally.NTC(); got != want {
		res.errs = append(res.errs, fmt.Sprintf("%s: accounted NTC %d, trace replay %d", ph.name, got, want))
	}
	if ph.periods > 0 {
		if eq4 := core.NewEvaluator(d.p).Cost(d.scheme.Bits()) * int64(ph.periods); want != eq4 {
			res.errs = append(res.errs, fmt.Sprintf("%s: trace replay NTC %d, eq. 4 D × %d periods %d", ph.name, want, ph.periods, eq4))
		}
	}
	if mc := load.CrossCheck(tally, d.reg, before); !mc.Match {
		res.errs = append(res.errs, fmt.Sprintf("%s: drp_net_* cross-check: %s", ph.name, mc.Describe()))
	}
	return res, nil
}

// checkRecovery crash-stops every site and reboots the cluster from its
// logs; each site's recovered state must be byte-identical to the state
// it held before the crash. It returns the reboot (replay) time.
func (d *deployment) checkRecovery() (time.Duration, []string, error) {
	states := make([][]byte, d.p.Sites())
	for i := range states {
		states[i] = d.cluster.Node(i).Store().EncodeState()
	}
	for i := range states {
		if err := d.cluster.Node(i).Kill(); err != nil {
			return 0, nil, fmt.Errorf("kill site %d: %w", i, err)
		}
	}
	d.cluster.Close()
	start := time.Now()
	c, err := netnode.StartDurable(d.p, d.dir, d.opts)
	if err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	reopen := time.Since(start)
	d.cluster = c
	var errs []string
	for i, want := range states {
		if !bytes.Equal(c.Node(i).Store().EncodeState(), want) {
			errs = append(errs, fmt.Sprintf("site %d: state after restart differs from state before the kill", i))
		}
	}
	return reopen, errs, nil
}

// siteDir is the durable data directory of one set-up attempt.
func siteDir(root string, attempt int) string {
	return filepath.Join(root, fmt.Sprintf("cluster-%d", attempt))
}
