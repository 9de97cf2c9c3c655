package agra

import (
	"fmt"

	"drp/internal/solver"
	"drp/internal/sparse"
)

// This file bridges AGRA onto the internal/sparse solver core. With
// Params.Sparse set (or M·N at or past Params.SparseAuto), AdaptWith
// converts the instance and the running scheme into the compressed
// representation and re-places only the changed objects with the sharded
// greedy — untouched objects keep their replicas bit-identically, the
// sparse analogue of the micro-GA pipeline's per-object scope.

// sparseEnabled reports whether params select the sparse core for an M×N
// instance.
func (pr Params) sparseEnabled(m, n int) bool {
	return pr.Sparse || (pr.SparseAuto > 0 && m*n >= pr.SparseAuto)
}

func (pr Params) sparseShards() int {
	if pr.Shards != 0 {
		return pr.Shards
	}
	return pr.Parallelism
}

// adaptSparse re-optimises the changed objects over the sparse core and
// adapts the result into the AGRA result shape.
func adaptSparse(in Input, params Params, run solver.Run) (*Result, error) {
	p := in.Problem
	mo := sparse.FromProblem(p)
	a, err := sparse.FromScheme(mo, in.Current)
	if err != nil {
		return nil, fmt.Errorf("agra: current scheme: %w", err)
	}
	sres, err := sparse.Adapt(mo, a, in.Changed, sparse.SolveParams{Shards: params.sparseShards()}, run)
	if err != nil {
		return nil, fmt.Errorf("agra: sparse adapt: %w", err)
	}
	scheme, err := sres.Assignment.ToScheme(p)
	if err != nil {
		return nil, fmt.Errorf("agra: sparse result invalid: %w", err)
	}
	res := &Result{
		Scheme:  scheme,
		Cost:    sres.Cost,
		Savings: p.Savings(sres.Cost),
		Stats:   sres.Stats,
		Sparse:  true,
	}
	res.Elapsed = res.Stats.Elapsed
	res.MicroElapsed = res.Stats.Elapsed
	return res, nil
}
