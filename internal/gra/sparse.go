package gra

import (
	"fmt"

	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/sparse"
)

// This file bridges GRA onto the internal/sparse solver core. With
// Params.Sparse set (or M·N at or past Params.SparseAuto), Run/RunWith
// convert the problem to the compressed candidate-pruned representation and
// solve it with the sharded greedy instead of the genetic search — the
// million-object path of ROADMAP item 3. The result shape is unchanged
// (scheme, cost, fitness, solver stats), so callers and CLIs treat both
// cores uniformly; Result.Sparse says which one ran.

// sparseEnabled reports whether params select the sparse core for an M×N
// instance.
func (pr Params) sparseEnabled(m, n int) bool {
	return pr.Sparse || (pr.SparseAuto > 0 && m*n >= pr.SparseAuto)
}

// sparseShards resolves the sparse worker count: Shards, else Parallelism,
// else GOMAXPROCS (inside sparse.Solve).
func (pr Params) sparseShards() int {
	if pr.Shards != 0 {
		return pr.Shards
	}
	return pr.Parallelism
}

// runSparse executes the sharded sparse solve and adapts its result into
// the GRA result shape.
func runSparse(p *core.Problem, params Params, run solver.Run) (*Result, error) {
	mo := sparse.FromProblem(p)
	sres, err := sparse.Solve(mo, sparse.SolveParams{Shards: params.sparseShards()}, run)
	if err != nil {
		return nil, fmt.Errorf("gra: sparse solve: %w", err)
	}
	scheme, err := sres.Assignment.ToScheme(p)
	if err != nil {
		return nil, fmt.Errorf("gra: sparse result invalid: %w", err)
	}
	fitness := 0.0
	if p.DPrime() != 0 {
		fitness = float64(p.DPrime()-sres.Cost) / float64(p.DPrime())
	}
	res := &Result{
		Scheme:  scheme,
		Cost:    sres.Cost,
		Fitness: fitness,
		History: []GenStats{{
			Gen:         sres.Stats.Iterations,
			BestFitness: fitness,
			BestCost:    sres.Cost,
		}},
		Stats:       sres.Stats,
		Evaluations: sres.Stats.Evaluations,
		Elapsed:     sres.Stats.Elapsed,
		Sparse:      true,
	}
	return res, nil
}
