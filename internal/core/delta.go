package core

// Replicas is a mutable replica placement the DeltaEvaluator can track:
// the dense *Scheme and the sparse solver's per-object assignment both
// satisfy it. Add and Remove enforce the DRP invariants and fail with
// the sentinel errors of this package.
type Replicas interface {
	Instance() *Instance
	Has(i, k int) bool
	Free(i int) int64
	Add(i, k int) error
	Remove(i, k int) error
	// AppendReplicators appends object k's replica sites, ascending, to
	// dst and returns the extended slice.
	AppendReplicators(dst []int32, k int) []int32
}

// DeltaEvaluator maintains a placement's cost incrementally: adding or
// removing one replica of object k only changes object k's share of D, so
// the exact new cost is one V_k kernel call instead of a full
// re-evaluation. Local-search baselines and what-if analyses use it; its
// results are asserted equal to the full evaluator in tests.
type DeltaEvaluator struct {
	in *Instance
	pl Replicas
	// objCost caches V_k per object; cost is their sum.
	objCost []int64
	cost    int64
	// scratch replicator buffers.
	repl, with []int32
}

// NewDeltaEvaluator wraps the placement (not copied: mutations must go
// through the evaluator's Add/Remove so the cache stays consistent).
func NewDeltaEvaluator(pl Replicas) *DeltaEvaluator {
	in := pl.Instance()
	d := &DeltaEvaluator{in: in, pl: pl, objCost: make([]int64, in.n)}
	for k := range d.objCost {
		d.objCost[k] = d.objectCost(k)
		d.cost += d.objCost[k]
	}
	return d
}

// Cost returns the current exact NTC.
func (d *DeltaEvaluator) Cost() int64 { return d.cost }

// ObjectCost returns the cached V_k.
func (d *DeltaEvaluator) ObjectCost(k int) int64 { return d.objCost[k] }

// AddDelta returns the cost change of placing a replica of k at site i
// without applying it. Returns 0, false if the placement is invalid.
func (d *DeltaEvaluator) AddDelta(i, k int) (int64, bool) {
	if d.pl.Has(i, k) || d.pl.Free(i) < d.in.size[k] {
		return 0, false
	}
	return d.objectCostWith(k, i, true) - d.objCost[k], true
}

// RemoveDelta returns the cost change of dropping the replica of k at site
// i without applying it. Returns 0, false if the removal is invalid.
func (d *DeltaEvaluator) RemoveDelta(i, k int) (int64, bool) {
	if !d.pl.Has(i, k) || int(d.in.primary[k]) == i {
		return 0, false
	}
	return d.objectCostWith(k, i, false) - d.objCost[k], true
}

// Add applies the placement and updates the cached cost.
func (d *DeltaEvaluator) Add(i, k int) error {
	if err := d.pl.Add(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

// Remove applies the removal and updates the cached cost.
func (d *DeltaEvaluator) Remove(i, k int) error {
	if err := d.pl.Remove(i, k); err != nil {
		return err
	}
	d.refresh(k)
	return nil
}

func (d *DeltaEvaluator) refresh(k int) {
	next := d.objectCost(k)
	d.cost += next - d.objCost[k]
	d.objCost[k] = next
}

func (d *DeltaEvaluator) objectCost(k int) int64 {
	d.repl = d.pl.AppendReplicators(d.repl[:0], k)
	return d.in.objectTerms(k, d.repl).Total()
}

// objectCostWith computes V_k as if the replica at site i were present
// (add=true) or absent (add=false), without mutating the placement. The
// replica list stays ascending.
func (d *DeltaEvaluator) objectCostWith(k, i int, add bool) int64 {
	d.repl = d.pl.AppendReplicators(d.repl[:0], k)
	site := int32(i)
	d.with = d.with[:0]
	for _, s := range d.repl {
		if add && site < s {
			d.with = append(d.with, site)
			add = false
		}
		if s != site {
			d.with = append(d.with, s)
		}
	}
	if add {
		d.with = append(d.with, site)
	}
	return d.in.objectTerms(k, d.with).Total()
}
