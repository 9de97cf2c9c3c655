package sparse

import (
	"context"
	"testing"

	"drp/internal/core"
	"drp/internal/solver"
)

func TestSolveValid(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		mo := testModel(t, 14, 120, seed)
		res, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("seed %d: invalid assignment: %v", seed, err)
		}
		if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
			t.Fatalf("seed %d: incremental cost %d, full re-eval %d", seed, res.Cost, full)
		}
		if res.Cost > mo.DPrime() {
			t.Fatalf("seed %d: cost %d exceeds D′ %d", seed, res.Cost, mo.DPrime())
		}
		if res.Applied+res.Truncated != res.Proposed {
			t.Fatalf("seed %d: applied %d + truncated %d != proposed %d", seed, res.Applied, res.Truncated, res.Proposed)
		}
		if res.Stats.Stopped != solver.StopCompleted {
			t.Fatalf("seed %d: stopped %v, want completed", seed, res.Stats.Stopped)
		}
		if res.Stats.Evaluations == 0 {
			t.Fatalf("seed %d: no evaluations metered", seed)
		}
	}
}

// TestSolveShardDeterminism is the seed-determinism satellite for the raw
// sharded solver: shard counts 1, 2 and 8 yield bit-identical assignments.
func TestSolveShardDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		mo := testModel(t, 16, 200, seed)
		base, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		for _, shards := range []int{2, 8} {
			res, err := Solve(mo, SolveParams{Shards: shards}, solver.Run{})
			if err != nil {
				t.Fatalf("seed %d shards %d: solve: %v", seed, shards, err)
			}
			if res.Cost != base.Cost {
				t.Fatalf("seed %d shards %d: cost %d, serial %d", seed, shards, res.Cost, base.Cost)
			}
			if !res.Assignment.Equal(base.Assignment) {
				t.Fatalf("seed %d shards %d: assignment diverges from serial", seed, shards)
			}
			if res.Stats.Evaluations != base.Stats.Evaluations {
				t.Fatalf("seed %d shards %d: evaluations %d, serial %d", seed, shards,
					res.Stats.Evaluations, base.Stats.Evaluations)
			}
		}
	}
}

func TestSolveMaxReplicas(t *testing.T) {
	mo := testModel(t, 12, 80, 9)
	res, err := Solve(mo, SolveParams{Shards: 1, MaxReplicas: 2}, solver.Run{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for k := 0; k < mo.Objects(); k++ {
		if deg := res.Assignment.ReplicaDegree(k); deg > 2 {
			t.Fatalf("object %d has %d replicas, cap is 2", k, deg)
		}
	}
	unlimited, err := Solve(mo, SolveParams{Shards: 1, MaxReplicas: -1}, solver.Run{})
	if err != nil {
		t.Fatalf("unlimited solve: %v", err)
	}
	if unlimited.Cost > res.Cost {
		t.Fatalf("unlimited cost %d worse than capped %d", unlimited.Cost, res.Cost)
	}
}

func TestSolveBudget(t *testing.T) {
	mo := testModel(t, 12, 150, 4)
	res, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{Budget: 20})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Stats.Stopped != solver.StopBudget {
		t.Fatalf("stopped %v, want budget", res.Stats.Stopped)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatalf("interrupted assignment invalid: %v", err)
	}
	if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
		t.Fatalf("interrupted cost %d, full re-eval %d", res.Cost, full)
	}
}

func TestSolveCancelled(t *testing.T) {
	mo := testModel(t, 10, 60, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(mo, SolveParams{Shards: 4}, solver.Run{Context: ctx})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Stats.Stopped != solver.StopCancelled {
		t.Fatalf("stopped %v, want cancelled", res.Stats.Stopped)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatalf("cancelled assignment invalid: %v", err)
	}
	if full := NewEvaluator(mo).Cost(res.Assignment); full != res.Cost {
		t.Fatalf("cancelled cost %d, full re-eval %d", res.Cost, full)
	}
}

// TestAdapt re-optimises only shifted objects: untouched objects keep their
// placement bit-identically and the cost stays exact.
func TestAdapt(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		spec := NewWorkloadSpec(14, 150)
		mo, err := GenerateWorkload(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		first, err := Solve(mo, SolveParams{Shards: 2}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		shifted, changed, err := PerturbWorkload(mo, spec, 0.2, seed*101)
		if err != nil {
			t.Fatalf("seed %d: perturb: %v", seed, err)
		}
		if len(changed) == 0 {
			t.Fatalf("seed %d: perturbation changed nothing", seed)
		}
		// Rebase the assignment onto the shifted model: placements carry
		// over (sizes and primaries are shared), candidates may differ only
		// for changed objects, which Adapt strips anyway.
		carried := NewAssignment(shifted)
		changedSet := make(map[int]bool, len(changed))
		for _, k := range changed {
			changedSet[k] = true
		}
		for k := 0; k < mo.Objects(); k++ {
			if changedSet[k] {
				continue
			}
			for _, i := range first.Assignment.Replicators(k) {
				if i != shifted.Primary(k) {
					if err := carried.Add(int(i), k); err != nil {
						t.Fatalf("seed %d: carry over object %d: %v", seed, k, err)
					}
				}
			}
		}
		before := carried.Clone()
		res, err := Adapt(shifted, carried, changed, SolveParams{Shards: 2}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: adapt: %v", seed, err)
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("seed %d: adapted assignment invalid: %v", seed, err)
		}
		if full := NewEvaluator(shifted).Cost(res.Assignment); full != res.Cost {
			t.Fatalf("seed %d: adapted cost %d, full re-eval %d", seed, res.Cost, full)
		}
		for k := 0; k < mo.Objects(); k++ {
			if changedSet[k] {
				continue
			}
			got := res.Assignment.Replicators(k)
			want := before.Replicators(k)
			if len(got) != len(want) {
				t.Fatalf("seed %d: untouched object %d moved: %v -> %v", seed, k, want, got)
			}
			for idx := range got {
				if got[idx] != want[idx] {
					t.Fatalf("seed %d: untouched object %d moved: %v -> %v", seed, k, want, got)
				}
			}
		}
		// Adapt must also be shard-deterministic.
		again, err := Adapt(shifted, before.Clone(), changed, SolveParams{Shards: 8}, solver.Run{})
		if err != nil {
			t.Fatalf("seed %d: re-adapt: %v", seed, err)
		}
		if !again.Assignment.Equal(res.Assignment) || again.Cost != res.Cost {
			t.Fatalf("seed %d: adapt diverges across shard counts", seed)
		}
	}
}

func TestAdaptRejectsBadObject(t *testing.T) {
	mo := testModel(t, 8, 10, 1)
	if _, err := Adapt(mo, NewAssignment(mo), []int{10}, SolveParams{}, solver.Run{}); err == nil {
		t.Fatal("out-of-range changed object accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec := NewWorkloadSpec(20, 300)
	a, err := GenerateWorkload(spec, 42)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := GenerateWorkload(spec, 42)
	if err != nil {
		t.Fatalf("generate again: %v", err)
	}
	if a.DPrime() != b.DPrime() {
		t.Fatalf("same seed, D′ %d vs %d", a.DPrime(), b.DPrime())
	}
	ra, wa := a.AccessEntries()
	rb, wb := b.AccessEntries()
	if ra != rb || wa != wb {
		t.Fatalf("same seed, nnz (%d,%d) vs (%d,%d)", ra, wa, rb, wb)
	}
	for k := 0; k < a.Objects(); k++ {
		as, ac := a.ReadEntries(k)
		bs, bc := b.ReadEntries(k)
		if len(as) != len(bs) {
			t.Fatalf("object %d: reader counts differ", k)
		}
		for idx := range as {
			if as[idx] != bs[idx] || ac[idx] != bc[idx] {
				t.Fatalf("object %d: read entries differ", k)
			}
		}
	}
	other, err := GenerateWorkload(spec, 43)
	if err != nil {
		t.Fatalf("generate other: %v", err)
	}
	if other.DPrime() == a.DPrime() {
		t.Fatalf("different seeds produced identical D′ %d", a.DPrime())
	}
}

func TestPerturbDeterminismAndIsolation(t *testing.T) {
	spec := NewWorkloadSpec(12, 100)
	mo, err := GenerateWorkload(spec, 7)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s1, c1, err := PerturbWorkload(mo, spec, 0.3, 11)
	if err != nil {
		t.Fatalf("perturb: %v", err)
	}
	s2, c2, err := PerturbWorkload(mo, spec, 0.3, 11)
	if err != nil {
		t.Fatalf("perturb again: %v", err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed, %d vs %d changed objects", len(c1), len(c2))
	}
	changedSet := make(map[int]bool, len(c1))
	for idx, k := range c1 {
		if c2[idx] != k {
			t.Fatalf("same seed, changed lists differ at %d", idx)
		}
		changedSet[k] = true
	}
	if s1.DPrime() != s2.DPrime() {
		t.Fatalf("same seed, shifted D′ %d vs %d", s1.DPrime(), s2.DPrime())
	}
	// Unchanged objects keep their exact access entries; V′ follows.
	for k := 0; k < mo.Objects(); k++ {
		if changedSet[k] {
			continue
		}
		os, oc := mo.ReadEntries(k)
		ns, nc := s1.ReadEntries(k)
		if len(os) != len(ns) {
			t.Fatalf("unchanged object %d: reader count moved", k)
		}
		for idx := range os {
			if os[idx] != ns[idx] || oc[idx] != nc[idx] {
				t.Fatalf("unchanged object %d: read entries moved", k)
			}
		}
		if mo.VPrime(k) != s1.VPrime(k) {
			t.Fatalf("unchanged object %d: V′ moved %d -> %d", k, mo.VPrime(k), s1.VPrime(k))
		}
	}
}

// TestSolveCostAgainstDeltaEvaluator checks the solver's incrementally
// maintained cost: replaying the final assignment's replicas through the
// delta evaluator from the primaries-only allocation must land on exactly
// the cost the solver reports.
func TestSolveCostAgainstDeltaEvaluator(t *testing.T) {
	mo := testModel(t, 10, 40, 6)
	res, err := Solve(mo, SolveParams{Shards: 1}, solver.Run{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Cost is a state function, so any replay order that reconstructs the
	// assignment must reach the same value.
	replay := core.NewDeltaEvaluator(NewAssignment(mo))
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range res.Assignment.Replicators(k) {
			if i == mo.Primary(k) {
				continue
			}
			if err := replay.Add(int(i), k); err != nil {
				t.Fatalf("replay add(%d,%d): %v", i, k, err)
			}
		}
	}
	if replay.Cost() != res.Cost {
		t.Fatalf("replayed cost %d, solver cost %d", replay.Cost(), res.Cost)
	}
}
