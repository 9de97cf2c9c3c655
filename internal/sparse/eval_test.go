package sparse

import (
	"sync/atomic"
	"testing"

	"drp/internal/core"
	"drp/internal/xrand"
)

// TestEvalMatchesDense walks random mutations and holds the sparse
// evaluator's full cost bit-identical to the dense one at every step.
func TestEvalMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		mo := testModel(t, 12, 30, seed)
		p := denseFromModel(t, mo)
		a := NewAssignment(mo)
		s := core.NewScheme(p)
		ev := NewEvaluator(mo)
		dev := core.NewEvaluator(p)
		rng := xrand.New(seed * 13)
		randomWalk(t, mo, s, a, rng, 60, func(step int) {
			sparseCost := ev.Cost(a)
			denseCost := dev.Cost(s.Bits())
			if sparseCost != denseCost {
				t.Fatalf("seed %d step %d: sparse cost %d, dense %d", seed, step, sparseCost, denseCost)
			}
			k := rng.Intn(mo.Objects())
			repl := a.Replicators(k)
			if got, want := ev.ObjectCost(k, repl), s.ObjectCost(k); got != want {
				t.Fatalf("seed %d step %d: V_%d sparse %d, dense %d", seed, step, k, got, want)
			}
		})
	}
}

// TestDeltaMatchesDense holds the sparse delta evaluator's predictions and
// applied costs equal to the dense delta evaluator along a mutation walk.
func TestDeltaMatchesDense(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		mo := testModel(t, 10, 20, seed)
		p := denseFromModel(t, mo)
		a := NewAssignment(mo)
		s := core.NewScheme(p)
		sd := core.NewDeltaEvaluator(a)
		dd := core.NewDeltaEvaluator(s)
		if sd.Cost() != dd.Cost() {
			t.Fatalf("seed %d: initial cost sparse %d, dense %d", seed, sd.Cost(), dd.Cost())
		}
		rng := xrand.New(seed * 31)
		for step := 0; step < 80; step++ {
			k := rng.Intn(mo.Objects())
			if rng.Bool(0.6) {
				cand := mo.Candidates(k)
				site := int(cand[rng.Intn(len(cand))])
				gotD, gotOK := sd.AddDelta(site, k)
				wantD, wantOK := dd.AddDelta(site, k)
				if gotD != wantD || gotOK != wantOK {
					t.Fatalf("seed %d step %d: AddDelta(%d,%d) sparse (%d,%v), dense (%d,%v)",
						seed, step, site, k, gotD, gotOK, wantD, wantOK)
				}
				if gotOK {
					if err := sd.Add(site, k); err != nil {
						t.Fatalf("seed %d step %d: sparse add: %v", seed, step, err)
					}
					if err := dd.Add(site, k); err != nil {
						t.Fatalf("seed %d step %d: dense add: %v", seed, step, err)
					}
				}
			} else {
				repl := a.Replicators(k)
				site := int(repl[rng.Intn(len(repl))])
				gotD, gotOK := sd.RemoveDelta(site, k)
				wantD, wantOK := dd.RemoveDelta(site, k)
				if gotD != wantD || gotOK != wantOK {
					t.Fatalf("seed %d step %d: RemoveDelta(%d,%d) sparse (%d,%v), dense (%d,%v)",
						seed, step, site, k, gotD, gotOK, wantD, wantOK)
				}
				if gotOK {
					if err := sd.Remove(site, k); err != nil {
						t.Fatalf("seed %d step %d: sparse remove: %v", seed, step, err)
					}
					if err := dd.Remove(site, k); err != nil {
						t.Fatalf("seed %d step %d: dense remove: %v", seed, step, err)
					}
				}
			}
			if sd.Cost() != dd.Cost() {
				t.Fatalf("seed %d step %d: cost sparse %d, dense %d", seed, step, sd.Cost(), dd.Cost())
			}
			if full := NewEvaluator(mo).Cost(a); full != sd.Cost() {
				t.Fatalf("seed %d step %d: cached cost %d, full re-eval %d", seed, step, sd.Cost(), full)
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: final assignment invalid: %v", seed, err)
		}
	}
}

// TestEvalPoolParity holds the pooled per-object costs identical at worker
// counts 1/2/8 and equal to the serial evaluator.
func TestEvalPoolParity(t *testing.T) {
	mo := testModel(t, 12, 60, 3)
	a := NewAssignment(mo)
	rng := xrand.New(99)
	for step := 0; step < 40; step++ {
		k := rng.Intn(mo.Objects())
		cand := mo.Candidates(k)
		_ = a.Add(int(cand[rng.Intn(len(cand))]), k)
	}
	serial := NewEvaluator(mo)
	want := make([]int64, mo.Objects())
	var wantTotal int64
	for k := range want {
		want[k] = serial.ObjectCost(k, a.Replicators(k))
		wantTotal += want[k]
	}
	for _, workers := range []int{1, 2, 8} {
		pool := core.NewEvalPool(mo.Instance, workers)
		got := pool.ObjectCosts(a.ReplicaLists())
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers %d: V_%d = %d, want %d", workers, k, got[k], want[k])
			}
		}
		if total := pool.Cost(a.ReplicaLists()); total != wantTotal {
			t.Fatalf("workers %d: total %d, want %d", workers, total, wantTotal)
		}
	}
}

func TestEvaluatorMeter(t *testing.T) {
	mo := testModel(t, 8, 10, 1)
	a := NewAssignment(mo)
	ev := NewEvaluator(mo)
	var meter atomic.Int64
	ev.SetMeter(&meter)
	ev.Cost(a)
	ev.ObjectCost(0, a.Replicators(0))
	if got := meter.Load(); got != 2 {
		t.Fatalf("meter %d after Cost+ObjectCost, want 2", got)
	}
	pool := core.NewEvalPool(mo.Instance, 4)
	pool.SetMeter(&meter)
	pool.Cost(a.ReplicaLists())
	if got := meter.Load(); got != 3 {
		t.Fatalf("meter %d after pooled Cost, want 3 (one charge per full evaluation)", got)
	}
}

func TestEmptyReplicatorsDegenerate(t *testing.T) {
	mo := testModel(t, 6, 8, 2)
	ev := NewEvaluator(mo)
	for k := 0; k < mo.Objects(); k++ {
		if got := ev.ObjectCost(k, nil); got != mo.VPrime(k) {
			t.Fatalf("object %d: empty-replicator cost %d, want V′ %d", k, got, mo.VPrime(k))
		}
	}
}
