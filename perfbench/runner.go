package main

import (
	"errors"
	"sync"
	"syscall"
	"time"
)

// maxWorkers caps the goroutines that issue requests. The benchmark host
// has two cores; more issuers would measure the scheduler, not the system.
const maxWorkers = 2

// Request is one scheduled operation: origin site, object, kind, and the
// offset from the phase start at which it is due.
type Request struct {
	Site, Obj int
	Write     bool
	At        time.Duration
}

// Target serves requests and returns the transfer cost accounted to each.
type Target interface {
	Read(site, obj int) (int64, error)
	Write(site, obj int) (int64, error)
}

// Outcome holds one phase's per-request measurements, indexed like the
// schedule. Latency runs from the intended send time to completion, so a
// stall also delays every request due behind it; Service runs from the
// moment a worker started the call.
type Outcome struct {
	Latency []int64 // ns, intended send time → completion
	Service []int64 // ns, call start → completion
	Cost    []int64 // transfer cost returned by the call
	Err     []error
	// Lag is the dispatcher's lateness per request: the time it handed the
	// request to the workers minus the intended send time.
	Lag []int64
	// Elapsed runs from the phase start to the last completion.
	Elapsed time.Duration
}

// Failed counts requests that returned an error.
func (o *Outcome) Failed() int {
	n := 0
	for _, err := range o.Err {
		if err != nil {
			n++
		}
	}
	return n
}

// sleepUntil blocks until t with nanosleep(2). time.Sleep rounds short
// sleeps up to the runtime timer's granularity (about 1 ms on the
// benchmark host), which would make the generator, not the system, set
// the measured latency at a few thousand requests per second.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// Run drives reqs against target open loop: the calling goroutine
// dispatches each request at its due time whatever earlier requests are
// doing, and workers (at most maxWorkers) issue them. The hand-off queue
// holds the whole schedule, so a slow target never blocks dispatch.
func Run(target Target, reqs []Request, workers int) (*Outcome, error) {
	if len(reqs) == 0 {
		return nil, errors.New("runner: empty schedule")
	}
	if workers < 1 || workers > maxWorkers {
		return nil, errors.New("runner: worker count must be 1 or 2")
	}
	n := len(reqs)
	out := &Outcome{
		Latency: make([]int64, n),
		Service: make([]int64, n),
		Cost:    make([]int64, n),
		Err:     make([]error, n),
		Lag:     make([]int64, n),
	}
	intended := make([]time.Time, n)
	queue := make(chan int, n)
	lastDone := make([]time.Time, workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := range queue {
				req := reqs[i]
				begin := time.Now()
				var cost int64
				var err error
				if req.Write {
					cost, err = target.Write(req.Site, req.Obj)
				} else {
					cost, err = target.Read(req.Site, req.Obj)
				}
				done := time.Now()
				out.Latency[i] = done.Sub(intended[i]).Nanoseconds()
				out.Service[i] = done.Sub(begin).Nanoseconds()
				out.Cost[i] = cost
				out.Err[i] = err
				lastDone[w] = done
			}
		}()
	}

	start := time.Now()
	for i, req := range reqs {
		due := start.Add(req.At)
		sleepUntil(due)
		intended[i] = due
		out.Lag[i] = time.Since(due).Nanoseconds()
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, t := range lastDone {
		if d := t.Sub(start); d > out.Elapsed {
			out.Elapsed = d
		}
	}
	return out, nil
}
