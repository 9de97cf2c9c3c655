package sparse

import "drp/internal/core"

// Evaluator computes eq. 4's D for assignments. It is a core.Evaluator over
// the model's instance — ObjectCost and SetMeter are core's — whose Cost
// takes an Assignment. Not safe for concurrent use; create one per
// goroutine.
type Evaluator struct{ *core.Evaluator }

// NewEvaluator returns an evaluator for mo.
func NewEvaluator(mo *Model) *Evaluator {
	return &Evaluator{core.NewInstanceEvaluator(mo.Instance)}
}

// Cost returns D for the assignment.
func (e *Evaluator) Cost(a *Assignment) int64 { return e.CostLists(a.repl) }
