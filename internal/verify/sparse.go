package verify

// Differential and property checks for the internal/sparse solver core.
// The sparse adapters — Evaluator.Cost over an Assignment, pooled
// per-object costs over its replica lists, and the shared delta evaluator
// tracking an Assignment — are held to the literal eq. 4 oracle and to full
// re-evaluation on random schemes and mutation walks (dense and sparse
// share one kernel, so comparing them against each other could no longer
// catch a kernel bug). The sharded solve is held shard-count-invariant,
// and the candidate pruning is checked against the exhaustive optimum
// (soundness) and under site relabelling (equivariance). Registering the
// checks here puts the sparse core under the same drpverify soak + ddmin
// shrinker as eq. 4 itself.

import (
	"fmt"

	"drp/internal/baseline"
	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/sparse"
)

// sparseWorkerCounts are the pool fan-outs the sparse-eval check runs.
var sparseWorkerCounts = []int{1, 2, 8}

// checkSparseEval: the sparse evaluator and the pool over an assignment's
// replica lists — serial and at several worker counts — agree with the
// literal eq. 4 oracle on random schemes, object by object and in total.
func checkSparseEval(cx *Ctx) error {
	p := cx.P
	mo := sparse.FromProblem(p)
	ev := sparse.NewEvaluator(mo)
	for trial := 0; trial < 4; trial++ {
		s := randomScheme(p, cx.RNG)
		a, err := sparse.FromScheme(mo, s)
		if err != nil {
			return fmt.Errorf("trial %d: scheme conversion: %w", trial, err)
		}
		want := naiveCost(p, s)
		if got := ev.Cost(a); got != want {
			return fmt.Errorf("trial %d: sparse cost %d != literal eq.4 %d (%d replicas)", trial, got, want, s.TotalReplicas())
		}
		wantV := make([]int64, p.Objects())
		for k := range wantV {
			wantV[k] = naiveObjectCost(p, s, k)
			if got := ev.ObjectCost(k, a.Replicators(k)); got != wantV[k] {
				return fmt.Errorf("trial %d: object %d sparse V=%d != literal %d", trial, k, got, wantV[k])
			}
		}
		for _, w := range sparseWorkerCounts {
			pool := core.NewEvalPool(mo.Instance, w)
			if got := pool.Cost(a.ReplicaLists()); got != want {
				return fmt.Errorf("trial %d: pooled sparse cost %d != literal eq.4 %d at %d workers", trial, got, want, w)
			}
			for k, v := range pool.ObjectCosts(a.ReplicaLists()) {
				if v != wantV[k] {
					return fmt.Errorf("trial %d: pooled object %d V=%d != literal %d at %d workers", trial, k, v, wantV[k], w)
				}
			}
		}
	}
	return nil
}

// checkSparseDelta: along one random mutation walk over an assignment, the
// delta evaluator accepts exactly the moves the assignment admits, its
// predicted deltas equal the change in a full sparse re-evaluation, and its
// running cost and cached V_k equal the literal eq. 4 oracle on the
// equivalent dense scheme.
func checkSparseDelta(cx *Ctx) error {
	p := cx.P
	mo := sparse.FromProblem(p)
	a := sparse.NewAssignment(mo)
	d := core.NewDeltaEvaluator(a)
	ev := sparse.NewEvaluator(mo)
	before := ev.Cost(a)
	for step := 0; step < 40; step++ {
		i, k := cx.RNG.Intn(p.Sites()), cx.RNG.Intn(p.Objects())
		removing := a.Has(i, k)
		var pred int64
		var ok bool
		var apply func(int, int) error
		if removing {
			pred, ok = d.RemoveDelta(i, k)
			apply = d.Remove
		} else {
			pred, ok = d.AddDelta(i, k)
			apply = d.Add
		}
		admissible := int32(i) != mo.Primary(k)
		if !removing {
			admissible = a.Free(i) >= p.Size(k)
		}
		if ok != admissible {
			return fmt.Errorf("step %d (site %d, object %d, removing=%v): delta evaluator accepts=%v, assignment admits=%v",
				step, i, k, removing, ok, admissible)
		}
		if !ok {
			continue
		}
		if err := apply(i, k); err != nil {
			return fmt.Errorf("step %d: accepted move failed to apply: %w", step, err)
		}
		after := ev.Cost(a)
		if pred != after-before {
			return fmt.Errorf("step %d (site %d, object %d): predicted delta %d != re-evaluated %d", step, i, k, pred, after-before)
		}
		before = after
		s, err := a.ToScheme(p)
		if err != nil {
			return fmt.Errorf("step %d: assignment does not convert: %w", step, err)
		}
		if want := naiveCost(p, s); d.Cost() != want {
			return fmt.Errorf("step %d (site %d, object %d): running cost %d != literal eq.4 %d", step, i, k, d.Cost(), want)
		}
		if want := naiveObjectCost(p, s, k); d.ObjectCost(k) != want {
			return fmt.Errorf("step %d: cached V_%d=%d != literal %d", step, k, d.ObjectCost(k), want)
		}
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("assignment invariants broken after mutation walk: %w", err)
	}
	return nil
}

// sparseShardCounts are the shard widths the determinism check compares.
var sparseShardCounts = []int{1, 2, 8}

// checkSparseShards: the sharded sparse solve is bit-identical at every
// shard count, its reported cost matches the dense evaluator, and it never
// loses to the no-replication allocation.
func checkSparseShards(cx *Ctx) error {
	p := cx.P
	mo := sparse.FromProblem(p)
	var first *sparse.Result
	for _, shards := range sparseShardCounts {
		res, err := sparse.Solve(mo, sparse.SolveParams{Shards: shards}, solver.Run{})
		if err != nil {
			return fmt.Errorf("solve at %d shards: %w", shards, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			return fmt.Errorf("solve at %d shards: invalid assignment: %w", shards, err)
		}
		if res.Cost > p.DPrime() {
			return fmt.Errorf("solve at %d shards: cost %d exceeds no-replication D′ %d", shards, res.Cost, p.DPrime())
		}
		s, err := res.Assignment.ToScheme(p)
		if err != nil {
			return fmt.Errorf("solve at %d shards: result does not convert: %w", shards, err)
		}
		if c := cx.Cost(s); c != res.Cost {
			return fmt.Errorf("solve at %d shards: reported cost %d but dense evaluator says %d", shards, res.Cost, c)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Cost != first.Cost {
			return fmt.Errorf("shards %d vs %d: cost %d != %d", shards, sparseShardCounts[0], res.Cost, first.Cost)
		}
		if !res.Assignment.Equal(first.Assignment) {
			return fmt.Errorf("shards %d vs %d: assignments differ", shards, sparseShardCounts[0])
		}
		if res.Stats.Evaluations != first.Stats.Evaluations {
			return fmt.Errorf("shards %d vs %d: evaluation count %d != %d", shards, sparseShardCounts[0], res.Stats.Evaluations, first.Stats.Evaluations)
		}
	}
	return nil
}

// checkSparsePrune (small instances): candidate pruning is sound — every
// replica site the exhaustive optimum uses survives pruning, so the sparse
// solver's search space always contains the optimum.
func checkSparsePrune(cx *Ctx) error {
	p := cx.P
	opt, err := baseline.Optimal(p, smallFreeBitLimit)
	if err != nil {
		return nil // instance larger than the exhaustive gate; skip
	}
	mo := sparse.FromProblem(p)
	for k := 0; k < p.Objects(); k++ {
		for _, i := range opt.Replicators(k) {
			if int32(i) == mo.Primary(k) {
				continue
			}
			if _, ok := core.SearchSites(mo.Candidates(k), int32(i)); !ok {
				return fmt.Errorf("object %d: optimum replicates at site %d but pruning dropped it (candidates %v)",
					k, i, mo.Candidates(k))
			}
		}
	}
	if _, err := sparse.FromScheme(mo, opt); err != nil {
		return fmt.Errorf("optimal scheme does not convert: %w", err)
	}
	return nil
}

// checkSparsePrunePerm: candidate pruning is equivariant under site
// relabelling — permuting the sites permutes every candidate list and
// nothing else.
func checkSparsePrunePerm(cx *Ctx) error {
	p := cx.P
	m, n := p.Sites(), p.Objects()
	perm := cx.RNG.Perm(m) // new index a holds old site perm[a]
	in := extract(p)
	out := &rawInstance{
		sizes:     in.sizes,
		caps:      make([]int64, m),
		primaries: make([]int, n),
		reads:     make([][]int64, m),
		writes:    make([][]int64, m),
		dist:      make([][]int64, m),
	}
	inv := make([]int, m)
	for a, old := range perm {
		inv[old] = a
		out.caps[a] = in.caps[old]
		out.reads[a] = in.reads[old]
		out.writes[a] = in.writes[old]
		out.dist[a] = make([]int64, m)
		for b := 0; b < m; b++ {
			out.dist[a][b] = in.dist[old][perm[b]]
		}
	}
	for k := 0; k < n; k++ {
		out.primaries[k] = inv[in.primaries[k]]
	}
	q, err := out.build()
	if err != nil {
		return fmt.Errorf("permuted instance rejected: %w", err)
	}
	mo := sparse.FromProblem(p)
	mq := sparse.FromProblem(q)
	for k := 0; k < n; k++ {
		orig := mo.Candidates(k)
		want := make(map[int32]bool, len(orig))
		for _, i := range orig {
			want[int32(inv[i])] = true
		}
		got := mq.Candidates(k)
		if len(got) != len(want) {
			return fmt.Errorf("object %d: candidate count %d after relabelling, want %d (perm %v)", k, len(got), len(want), perm)
		}
		for _, i := range got {
			if !want[i] {
				return fmt.Errorf("object %d: site %d is a candidate after relabelling but its preimage %d was not (perm %v)",
					k, i, perm[i], perm)
			}
		}
	}
	return nil
}
