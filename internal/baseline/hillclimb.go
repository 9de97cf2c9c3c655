package baseline

import (
	"drp/internal/core"
	"drp/internal/solver"
)

// HillClimbResult reports a local-search run.
type HillClimbResult struct {
	Scheme *core.Scheme
	// Moves is the number of accepted improving moves.
	Moves int
	// Evaluations counts delta evaluations performed (mirrors
	// Stats.Evaluations).
	Evaluations int
	// Stats is the solver-runtime accounting: Iterations counts accepted
	// moves and Stopped tells whether the search reached a local optimum
	// (completed) or was interrupted at a round boundary. The scheme is
	// valid either way — moves are applied incrementally.
	Stats solver.Stats
}

// HillClimb runs steepest-descent local search over single-replica moves
// (add one replica or remove one replica), starting from the given scheme
// (primaries-only if nil). It accepts the best improving move each round
// and stops at a local optimum or after maxMoves accepted moves
// (0 = unbounded).
//
// This is the classic comparator the paper's related work solves with
// integer programming: with the incremental evaluator each round costs
// O(M·N) delta evaluations of O(M·|R_k|) each. It beats SRA's local view
// (it can also *remove* misplaced replicas) but explores far less than
// GRA.
func HillClimb(p *core.Problem, start *core.Scheme, maxMoves int) *HillClimbResult {
	return HillClimbWith(p, start, maxMoves, solver.Run{})
}

// HillClimbWith is HillClimb under anytime controls: interruption is
// checked once per round (one round scans every move and accepts the best),
// with the budget counted in delta evaluations.
func HillClimbWith(p *core.Problem, start *core.Scheme, maxMoves int, run solver.Run) *HillClimbResult {
	c := solver.Start("hill", run)
	var scheme *core.Scheme
	if start == nil {
		scheme = core.NewScheme(p)
	} else {
		scheme = start.Clone()
	}
	d := core.NewDeltaEvaluator(scheme)
	res := &HillClimbResult{}

	stop := solver.StopCompleted
	for maxMoves <= 0 || res.Moves < maxMoves {
		if reason, halt := c.Check(); halt {
			stop = reason
			break
		}
		before := res.Evaluations
		bestDelta := int64(0)
		bestI, bestK, bestAdd := -1, -1, false
		for i := 0; i < p.Sites(); i++ {
			for k := 0; k < p.Objects(); k++ {
				if delta, ok := d.AddDelta(i, k); ok {
					res.Evaluations++
					if delta < bestDelta {
						bestDelta, bestI, bestK, bestAdd = delta, i, k, true
					}
				} else if delta, ok := d.RemoveDelta(i, k); ok {
					res.Evaluations++
					if delta < bestDelta {
						bestDelta, bestI, bestK, bestAdd = delta, i, k, false
					}
				}
			}
		}
		c.Charge(res.Evaluations - before)
		if bestI < 0 {
			break // local optimum
		}
		var err error
		if bestAdd {
			err = d.Add(bestI, bestK)
		} else {
			err = d.Remove(bestI, bestK)
		}
		if err != nil {
			panic("baseline: accepted move rejected: " + err.Error())
		}
		res.Moves++
		c.Observe(res.Moves, 0, 0, 0)
	}
	res.Scheme = scheme
	res.Stats = c.Finish(res.Moves, stop)
	return res
}
