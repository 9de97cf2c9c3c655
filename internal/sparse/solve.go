package sparse

import (
	"container/heap"
	"fmt"

	"drp/internal/core"
	"drp/internal/parallel"
	"drp/internal/solver"
)

// This file implements the sharded greedy solver over the sparse
// representation. Objects couple only through per-site capacity, so the
// search splits into two phases:
//
//  1. Propose — every object is searched independently: a greedy descent
//     over its pruned candidate sites, each step adding the replica with
//     the most negative exact cost delta (computed from cached per-reader
//     nearest-replica distances in O(|cand|·|readers|) per step). Objects
//     fan out across shard workers via parallel.ForWorker; proposals are
//     pure functions of the object written into index-addressed slots, so
//     the shard count only groups work and never changes any result.
//
//  2. Merge — a single deterministic capacity-ledger pass reconciles the
//     proposals: all first steps enter a max-heap ordered by benefit
//     density (saving per storage unit, then absolute saving, then object
//     index — a total order), and steps are applied best-first while
//     capacity admits them. The first rejected step of an object truncates
//     the object's remaining steps, because each later delta was computed
//     assuming the earlier replicas exist; truncation keeps the running
//     cost exact (start cost plus applied deltas, verified against a full
//     re-evaluation in tests).
//
// Both phases honour the anytime runtime: proposals check the controller
// per object, the merge at fixed step intervals, and every greedy step
// charges the evaluation meter — so budgets, deadlines and observers work
// exactly as they do for the dense solvers.

// DefaultMaxReplicas caps the greedy descent per object. Unlimited descent
// on a million-object instance multiplies work by the replica count for
// near-zero marginal saving; 8 replicas on ~100 sites matches the paper's
// observed replica degrees.
const DefaultMaxReplicas = 8

// SolveParams configures the sharded solve.
type SolveParams struct {
	// Shards is the worker count for the proposal fan-out: 0 means
	// GOMAXPROCS, 1 is serial. Results are bit-identical at any value.
	Shards int
	// MaxReplicas caps replicas per object (primary included): 0 means
	// DefaultMaxReplicas, negative means unlimited.
	MaxReplicas int
}

// Result is a sharded solve's outcome.
type Result struct {
	// Assignment is the final replica placement (primary-valid, within
	// capacity).
	Assignment *Assignment
	// Cost is the exact eq. 4 NTC of Assignment, maintained incrementally
	// and equal to a full re-evaluation.
	Cost int64
	// Savings is the paper's 100·(D′−D)/D′ quality metric.
	Savings float64
	// Proposed and Applied count greedy steps before and after the
	// capacity-ledger merge; Truncated counts steps dropped because a site
	// filled up (including steps invalidated by an earlier rejection).
	Proposed, Applied, Truncated int
	// Stats is the anytime runtime's uniform accounting.
	Stats solver.Stats
}

// proposal is one object's greedy descent: sites to add in order, with the
// exact cost delta of each step given the previous steps applied.
type proposal struct {
	sites  []int32
	deltas []int64
}

// Solve runs the sharded greedy from the primaries-only allocation.
func Solve(mo *Model, params SolveParams, run solver.Run) (*Result, error) {
	c := solver.Start("sparse", run)
	a := NewAssignment(mo)
	props := make([]proposal, mo.Objects())
	objects := make([]int, mo.Objects())
	for k := range objects {
		objects[k] = k
	}
	propose(mo, objects, props, params, c)
	c.Observe(0, 0, 0, mo.DPrime())
	res := merge(mo, a, mo.DPrime(), objects, props, c)
	return res, nil
}

// Adapt re-optimises only the changed objects of an existing assignment:
// their replicas (beyond the primary) are stripped, fresh proposals are
// computed against the residual capacity ledger, and the merge reconciles
// them. Untouched objects keep their placement bit-identically. The
// assignment is mutated in place and returned in the result.
func Adapt(mo *Model, a *Assignment, changed []int, params SolveParams, run solver.Run) (*Result, error) {
	c := solver.Start("sparse", run)
	seen := make(map[int]bool, len(changed))
	objects := make([]int, 0, len(changed))
	for _, k := range changed {
		if k < 0 || k >= mo.Objects() {
			return nil, fmt.Errorf("sparse: changed object %d out of range [0,%d)", k, mo.Objects())
		}
		if !seen[k] {
			seen[k] = true
			objects = append(objects, k)
		}
	}
	pool := core.NewEvalPool(mo.Instance, params.Shards)
	pool.SetMeter(c.Meter())
	cost := pool.Cost(a.repl)
	// Strip the changed objects to primary-only; the cost moves to their
	// V′_k and the ledger releases their storage.
	ev := pool.Evaluator()
	for _, k := range objects {
		cost += mo.VPrime(k) - ev.ObjectCost(k, a.repl[k])
		repl := append([]int32(nil), a.repl[k]...)
		for _, i := range repl {
			if i != mo.Primary(k) {
				if err := a.Remove(int(i), k); err != nil {
					return nil, err
				}
			}
		}
	}
	props := make([]proposal, len(objects))
	propose(mo, objects, props, params, c)
	c.Observe(0, 0, 0, cost)
	res := merge(mo, a, cost, objects, props, c)
	return res, nil
}

// propose computes the greedy descent of every listed object into
// props[idx] (parallel, index-addressed, RNG-free). Capacity is not
// consulted here — proposals are optimistic and the merge settles them
// against the shared ledger — so a proposal is a pure function of its
// object and the shard count cannot influence it.
func propose(mo *Model, objects []int, props []proposal, params SolveParams, c *solver.Controller) {
	maxAdds := params.MaxReplicas
	switch {
	case maxAdds == 0:
		maxAdds = DefaultMaxReplicas - 1
	case maxAdds < 0:
		maxAdds = mo.Sites()
	default:
		maxAdds--
	}
	workers := parallel.Workers(params.Shards)
	type scratch struct {
		dmin   []int64 // per-reader nearest-replica distance
		inRepl []bool  // candidate-indexed: already added this descent
	}
	scratches := make([]scratch, workers)
	parallel.ForWorker(len(objects), workers, func(w, idx int) {
		if _, stop := c.Check(); stop {
			return // remaining objects keep empty proposals
		}
		sc := &scratches[w]
		k := objects[idx]
		cand := mo.Candidates(k)
		if len(cand) <= 1 {
			c.Charge(1)
			return // only the primary: nothing to propose
		}
		sp := int(mo.Primary(k))
		ok := mo.Size(k)
		wTot := mo.TotalWrites(k)
		dist := mo.Dist()
		spRow := dist.Row(sp)
		rs, rc := mo.ReadEntries(k)
		ws, wc := mo.WriteEntries(k)
		if cap(sc.dmin) < len(rs) {
			sc.dmin = make([]int64, len(rs))
		}
		dmin := sc.dmin[:len(rs)]
		for j, site := range rs {
			dmin[j] = spRow[site]
		}
		if cap(sc.inRepl) < len(cand) {
			sc.inRepl = make([]bool, len(cand))
		}
		inRepl := sc.inRepl[:len(cand)]
		for ci := range inRepl {
			inRepl[ci] = cand[ci] == int32(sp)
		}
		var sites []int32
		var deltas []int64
		rounds := 1
		for len(sites) < maxAdds {
			bestCI := -1
			var bestDelta int64
			for ci, x := range cand {
				if inRepl[ci] {
					continue
				}
				row := dist.Row(int(x))
				// Fan-in the new replica starts paying, minus the write
				// shipping and read traffic site x stops paying, minus the
				// read-distance drops of the other non-replicator readers.
				delta := wTot * ok * spRow[x]
				for j, site := range rs {
					if site == x {
						delta -= rc[j] * ok * dmin[j]
						continue
					}
					if drop := dmin[j] - row[site]; drop > 0 {
						// Readers that are replicators have dmin 0, so they
						// never contribute here.
						delta -= rc[j] * ok * drop
					}
				}
				for j, site := range ws {
					if site == x {
						delta -= wc[j] * ok * spRow[x]
						break // sites are unique within the CSR row
					}
				}
				if bestCI < 0 || delta < bestDelta {
					bestCI, bestDelta = ci, delta
				}
			}
			rounds++
			if bestCI < 0 || bestDelta >= 0 {
				break
			}
			x := cand[bestCI]
			inRepl[bestCI] = true
			row := dist.Row(int(x))
			for j, site := range rs {
				if d := row[site]; d < dmin[j] {
					dmin[j] = d
				}
			}
			sites = append(sites, x)
			deltas = append(deltas, bestDelta)
		}
		props[idx] = proposal{sites: sites, deltas: deltas}
		// One charge per greedy scan round — the sparse analogue of a
		// cost-model evaluation, so budgets bite proportionally.
		c.Charge(rounds)
	})
}

// ledgerEntry is one pending merge step: objects[obj]'s step-th greedy add.
type ledgerEntry struct {
	obj     int // index into the objects/props slices
	step    int
	density float64 // saving per storage unit of this step
	benefit int64   // −delta
}

type ledgerHeap []ledgerEntry

func (h ledgerHeap) Len() int { return len(h) }
func (h ledgerHeap) Less(a, b int) bool {
	if h[a].density != h[b].density {
		return h[a].density > h[b].density
	}
	if h[a].benefit != h[b].benefit {
		return h[a].benefit > h[b].benefit
	}
	return h[a].obj < h[b].obj
}
func (h ledgerHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *ledgerHeap) Push(x interface{}) { *h = append(*h, x.(ledgerEntry)) }
func (h *ledgerHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

const (
	mergeCheckEvery   = 4096
	mergeObserveEvery = 65536
)

// merge applies the proposals best-density-first against the shared
// capacity ledger. startCost must be the exact cost of a as passed in; the
// returned cost is startCost plus every applied delta.
func merge(mo *Model, a *Assignment, startCost int64, objects []int, props []proposal, c *solver.Controller) *Result {
	res := &Result{Assignment: a}
	cost := startCost
	h := make(ledgerHeap, 0, len(props))
	for idx := range props {
		res.Proposed += len(props[idx].sites)
		if len(props[idx].sites) > 0 {
			h = append(h, entryFor(mo, objects, props, idx, 0))
		}
	}
	heap.Init(&h)
	// Sample the controller once up front: a run interrupted during the
	// propose phase (which leaves later objects with empty proposals) must
	// report its stop reason even when nothing reaches the heap.
	stopped, _ := c.Check()
	steps := 0
	for stopped == solver.StopCompleted && h.Len() > 0 {
		if steps%mergeCheckEvery == 0 {
			if reason, stop := c.Check(); stop {
				stopped = reason
				break
			}
		}
		e := heap.Pop(&h).(ledgerEntry)
		k := objects[e.obj]
		p := &props[e.obj]
		site := int(p.sites[e.step])
		if err := a.Add(site, k); err != nil {
			// Capacity: this and every later step of the object assumed the
			// add succeeded, so the whole tail is invalid.
			res.Truncated += len(p.sites) - e.step
			continue
		}
		cost += -e.benefit
		res.Applied++
		steps++
		if e.step+1 < len(p.sites) {
			heap.Push(&h, entryFor(mo, objects, props, e.obj, e.step+1))
		}
		if steps%mergeObserveEvery == 0 {
			c.Observe(steps, 0, 0, cost)
		}
	}
	if stopped.Interrupted() {
		// Anything left pending stays unapplied; the assignment and cost
		// remain exact for what was applied.
		for h.Len() > 0 {
			e := heap.Pop(&h).(ledgerEntry)
			res.Truncated += len(props[e.obj].sites) - e.step
		}
	}
	res.Cost = cost
	res.Savings = mo.Savings(cost)
	res.Stats = c.Finish(res.Applied, stopped)
	c.Observe(res.Applied, 0, 0, cost)
	return res
}

func entryFor(mo *Model, objects []int, props []proposal, idx, step int) ledgerEntry {
	k := objects[idx]
	benefit := -props[idx].deltas[step]
	return ledgerEntry{
		obj:     idx,
		step:    step,
		density: float64(benefit) / float64(mo.Size(k)),
		benefit: benefit,
	}
}
