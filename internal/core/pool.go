package core

import (
	"sync/atomic"

	"drp/internal/bitset"
	"drp/internal/parallel"
)

// EvalPool fans cost evaluations out across a fixed set of per-goroutine
// Evaluators. An Evaluator is not safe for concurrent use (it reuses
// per-object scratch buffers), so the pool owns one per worker and hands it
// to whichever task that worker picks up. Results are always written by
// task index, so the reduction order — and therefore every downstream
// decision — is identical at any worker count.
//
// The pool itself must not be shared between concurrently running batches;
// one pool per solver run is the intended shape.
type EvalPool struct {
	workers int
	evs     []*Evaluator
}

// NewEvalPool returns a pool for the instance — a dense Problem's or the
// sparse solver's, so both representations share one pool. parallelism
// follows the solvers' convention: 0 means GOMAXPROCS, 1 is fully serial
// (evaluations run inline on the caller's goroutine), anything larger is an
// explicit worker count.
func NewEvalPool(in *Instance, parallelism int) *EvalPool {
	w := parallel.Workers(parallelism)
	evs := make([]*Evaluator, w)
	for i := range evs {
		evs[i] = NewInstanceEvaluator(in)
	}
	return &EvalPool{workers: w, evs: evs}
}

// SetMeter attaches one shared evaluation counter to every worker's
// evaluator (see Evaluator.SetMeter); nil detaches.
func (pl *EvalPool) SetMeter(meter *atomic.Int64) {
	for _, ev := range pl.evs {
		ev.SetMeter(meter)
	}
}

// Workers returns the pool's worker count.
func (pl *EvalPool) Workers() int { return pl.workers }

// Evaluator returns worker 0's evaluator for inline, single-chromosome use
// on the caller's goroutine (never concurrently with Each).
func (pl *EvalPool) Evaluator() *Evaluator { return pl.evs[0] }

// Each runs fn(ev, i) for every i in [0, n) across the pool, handing each
// invocation a worker-private Evaluator. fn must write its result into an
// index-addressed slot and must not touch shared mutable state.
func (pl *EvalPool) Each(n int, fn func(ev *Evaluator, i int)) {
	parallel.ForWorker(n, pl.workers, func(w, i int) { fn(pl.evs[w], i) })
}

// Costs evaluates each placement matrix and returns their NTCs in input
// order.
func (pl *EvalPool) Costs(xs []*bitset.Set) []int64 {
	out := make([]int64, len(xs))
	pl.Each(len(xs), func(ev *Evaluator, i int) { out[i] = ev.Cost(xs[i]) })
	return out
}

// ObjectCosts evaluates V_k for every object's ascending replica list in
// parallel and returns them in object order (their sum is D). The batch
// counts as one evaluation on the meter.
func (pl *EvalPool) ObjectCosts(lists [][]int32) []int64 {
	out := make([]int64, len(lists))
	in := pl.evs[0].in
	pl.Each(len(lists), func(_ *Evaluator, k int) { out[k] = in.objectTerms(k, lists[k]).Total() })
	pl.evs[0].count()
	return out
}

// Cost evaluates D for per-object replica lists with per-object
// parallelism — the million-object full evaluation.
func (pl *EvalPool) Cost(lists [][]int32) int64 {
	var total int64
	for _, v := range pl.ObjectCosts(lists) {
		total += v
	}
	return total
}
