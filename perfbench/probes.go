package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drp/internal/core"
	"drp/internal/metrics"
	"drp/internal/spans"
	"drp/internal/store"
)

// The probes below time calls into one layer's public functions from the
// benchmark's side, so the traced run needs no instrumentation inside the
// program. Each reports the median over batches, per call.

// batchMedian runs fn(n) batches times and returns the median time per
// call in nanoseconds.
func batchMedian(batches, n int, fn func(n int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		t := time.Now()
		fn(n)
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// transportProbe is a dialer that counts and times every outbound
// connection a node opens, and the bytes and time spent in its reads and
// writes. Installed through Node.SetDialer.
type transportProbe struct {
	mu     sync.Mutex
	dialNs []int64
	ioNs   int64
	bytes  int64
}

func (tp *transportProbe) dial(addr string) (net.Conn, error) {
	t := time.Now()
	c, err := net.Dial("tcp", addr)
	d := time.Since(t).Nanoseconds()
	tp.mu.Lock()
	tp.dialNs = append(tp.dialNs, d)
	tp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &probedConn{Conn: c, tp: tp}, nil
}

func (tp *transportProbe) io(n int, d time.Duration) {
	tp.mu.Lock()
	tp.bytes += int64(n)
	tp.ioNs += d.Nanoseconds()
	tp.mu.Unlock()
}

// snapshot returns the probe's totals and resets it.
func (tp *transportProbe) snapshot() (dialNs []int64, ioNs, bytes int64) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	dialNs, ioNs, bytes = tp.dialNs, tp.ioNs, tp.bytes
	tp.dialNs, tp.ioNs, tp.bytes = nil, 0, 0
	return dialNs, ioNs, bytes
}

type probedConn struct {
	net.Conn
	tp *transportProbe
}

func (c *probedConn) Read(b []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(b)
	c.tp.io(n, time.Since(t))
	return n, err
}

func (c *probedConn) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(b)
	c.tp.io(n, time.Since(t))
	return n, err
}

// storeAppendUS times one WAL-appending mutation (AddNTC) on a fresh store
// under each fsync policy, and on a memory store. The values are the
// median microseconds per call.
func storeAppendUS(root string) (map[string]float64, error) {
	out := map[string]float64{}
	primaries := make([]int, 64)
	policies := []struct {
		name, policy string
		calls        int
	}{
		{"always", "always", 200}, // one fsync per call: keep the count small
		{"every64", "every:64", 4000},
		{"never", "never", 4000},
	}
	for _, pc := range policies {
		policy, every, err := store.ParseSyncPolicy(pc.policy)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(root, "append-"+pc.name)
		st, err := store.Open(dir, 0, primaries, store.Options{Sync: policy, SyncEvery: every})
		if err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
		var callErr error
		out[pc.name] = batchMedian(5, pc.calls/5, func(n int) {
			for i := 0; i < n && callErr == nil; i++ {
				callErr = st.AddNTC(1)
			}
		}) / 1e3
		if err := st.Close(); err != nil && callErr == nil {
			callErr = err
		}
		if callErr != nil {
			return nil, fmt.Errorf("store probe %s: %w", pc.name, callErr)
		}
		_ = os.RemoveAll(dir) // scratch state under the run directory
	}
	mem := store.Memory(0, primaries)
	var memErr error
	out["memory"] = batchMedian(5, 20000, func(n int) {
		for i := 0; i < n && memErr == nil; i++ {
			memErr = mem.AddNTC(1)
		}
	}) / 1e3
	return out, memErr
}

// metricsNS times a counter increment and a histogram observation.
func metricsNS() (inc, observe float64) {
	reg := metrics.NewRegistry()
	c := reg.Counter("perfbench_probe_total", "", nil)
	h := reg.Histogram("perfbench_probe_seconds", "", metrics.LatencyBuckets(), nil)
	inc = batchMedian(7, 200000, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	observe = batchMedian(7, 200000, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(float64(i%4096) * 1e-6)
		}
	})
	return inc, observe
}

// spansNS times a request-shaped span pair — Root, Child, both Finished —
// with tracing off (nil tracer) and on (a collecting tracer).
func spansNS() (off, on float64) {
	tree := func(tr *spans.Tracer, n int) {
		for i := 0; i < n; i++ {
			root := tr.Root("read")
			child := root.Child("rpc.read")
			child.Finish()
			root.Finish()
		}
	}
	off = batchMedian(7, 200000, func(n int) { tree(nil, n) })
	col := &spans.Collector{}
	tr := spans.New(col)
	on = batchMedian(7, 20000, func(n int) {
		tree(tr, n)
		col.Reset()
	})
	return off, on
}

// evalProbe times a full eq. 4 evaluation of scheme and one delta
// evaluation of adding a replica.
func evalProbe(s *core.Scheme) (fullUS, deltaNS float64) {
	p := s.Problem()
	bits := s.Bits()
	ev := core.NewEvaluator(p)
	fullUS = batchMedian(7, 40, func(n int) {
		for i := 0; i < n; i++ {
			ev.Cost(bits)
		}
	}) / 1e3
	de := core.NewDeltaEvaluator(s.Clone())
	m, objs := p.Sites(), p.Objects()
	deltaNS = batchMedian(7, m*objs, func(n int) {
		for i := 0; i < n; i++ {
			de.AddDelta(i%m, (i/m)%objs)
		}
	})
	return fullUS, deltaNS
}
