package core

import (
	"sync/atomic"

	"drp/internal/bitset"
)

// This file implements the object transfer cost model of Section 2.2.
//
// For a replication scheme X, the total network transfer cost (eq. 4) is
//
//	D = Σ_i Σ_k (1−X_ik)·[ r_k(i)·o_k·min{C(i,j) : X_jk=1}
//	                       + w_k(i)·o_k·C(i,SP_k) ]
//	            + X_ik·Wtot_k·o_k·C(i,SP_k)
//
// where Wtot_k = Σ_x w_k(x). Reads go to the nearest replica; writes are
// shipped to the primary, which broadcasts the updated object to every
// replica. A replicator i pays the full update fan-in Wtot_k·o_k·C(i,SP_k);
// the x=i term of that sum doubles as site i's own shipping cost to the
// primary, which keeps eq. 4 consistent with eqs. 1–2 (the broadcast
// excludes the writer itself).
//
// D decomposes as Σ_k V_k, and Instance.objectTerms is the one function
// that computes V_k: the full evaluator, the delta evaluator, the pool,
// Scheme.CostTerms and the sparse solver's evaluators all call it.

// objectTerms returns V_k split into eq. 4's three terms for the replica
// set repl, which must list distinct sites in ascending order. It touches
// only the replicators (for the update fan-in) and object k's CSR entries
// (for the non-replicator terms) — O(|R_k| + nnz_k·|R_k|) — because sites
// with no traffic contribute nothing. An empty repl is priced as the
// primaries-only placement.
func (in *Instance) objectTerms(k int, repl []int32) CostTerms {
	if len(repl) == 0 {
		repl = in.primary[k : k+1]
	}
	ok := in.size[k]
	wTot := in.totalWrites[k]
	spRow := in.dist.Row(int(in.primary[k]))
	var t CostTerms
	// Update fan-in: every replicator receives each update from the primary
	// (its own updates ship to the primary via the x=i term).
	for _, i := range repl {
		t.UpdateNTC += wTot * ok * spRow[i]
	}
	// Non-replicator reads go to the nearest replica; non-replicator writes
	// ship to the primary. Entry sites and repl both ascend, so one forward
	// cursor per list finds the replicators without searching repl for
	// every entry.
	rs, rc := in.ReadEntries(k)
	r := 0
	for idx, j := range rs {
		for r < len(repl) && repl[r] < j {
			r++
		}
		if r < len(repl) && repl[r] == j {
			continue
		}
		row := in.dist.Row(int(j))
		dmin := row[repl[0]]
		for _, x := range repl[1:] {
			if d := row[x]; d < dmin {
				dmin = d
			}
		}
		t.ReadNTC += rc[idx] * ok * dmin
	}
	ws, wc := in.WriteEntries(k)
	r = 0
	for idx, j := range ws {
		for r < len(repl) && repl[r] < j {
			r++
		}
		if r < len(repl) && repl[r] == j {
			continue
		}
		t.WriteNTC += wc[idx] * ok * spRow[j]
	}
	return t
}

// SearchSites locates site in an ascending site list: the insertion index
// and whether the site is present. Replica and candidate lists are short,
// so a linear scan that stops at the first larger site beats binary search.
func SearchSites(list []int32, site int32) (int, bool) {
	for idx, s := range list {
		if s >= site {
			return idx, s == site
		}
	}
	return len(list), false
}

// Evaluator computes D for raw site-major bit matrices (GA chromosomes) or
// per-object replica lists while reusing internal buffers. It is not safe
// for concurrent use; create one per goroutine (EvalPool does).
type Evaluator struct {
	in *Instance
	// replicators[k] is scratch for the replica list of object k, allocated
	// on the first bit-matrix evaluation.
	replicators [][]int32
	// meter, when set, is incremented once per Cost/CostLists/ObjectCost
	// call — the solver runtime's central evaluation counter for budget
	// accounting.
	meter *atomic.Int64
}

// NewEvaluator returns an evaluator for p.
func NewEvaluator(p *Problem) *Evaluator { return NewInstanceEvaluator(p.Instance) }

// NewInstanceEvaluator returns an evaluator for any instance — a dense
// Problem's or the sparse solver's.
func NewInstanceEvaluator(in *Instance) *Evaluator { return &Evaluator{in: in} }

// SetMeter attaches an evaluation counter: every subsequent Cost,
// CostLists and ObjectCost call adds one to it. The counter may be shared
// across evaluators (and goroutines); nil detaches.
func (e *Evaluator) SetMeter(meter *atomic.Int64) { e.meter = meter }

func (e *Evaluator) count() {
	if e.meter != nil {
		e.meter.Add(1)
	}
}

// Cost returns D for the placement encoded by x. The bitset must be
// site-major with length M·N. Objects with no replica at all contribute as
// if only the primary existed (the GA repairs such chromosomes separately);
// in well-formed schemes the primary bit is always present.
func (e *Evaluator) Cost(x *bitset.Set) int64 {
	n := e.in.n
	if e.replicators == nil {
		e.replicators = make([][]int32, n)
	}
	for k := range e.replicators {
		e.replicators[k] = e.replicators[k][:0]
	}
	// Site-major traversal appends sites in ascending order.
	for pos := x.NextSet(0); pos >= 0; pos = x.NextSet(pos + 1) {
		e.replicators[pos%n] = append(e.replicators[pos%n], int32(pos/n))
	}
	return e.CostLists(e.replicators)
}

// CostLists returns D for per-object replica lists: lists[k] holds object
// k's replica sites, ascending.
func (e *Evaluator) CostLists(lists [][]int32) int64 {
	e.count()
	var total int64
	for k, repl := range lists {
		total += e.in.objectTerms(k, repl).Total()
	}
	return total
}

// ObjectCost returns V_k, the NTC attributable to object k, for the
// replicator set given as ascending site indices. Used by AGRA, whose
// chromosomes describe a single object's replication scheme.
func (e *Evaluator) ObjectCost(k int, replicators []int32) int64 {
	e.count()
	return e.in.objectTerms(k, replicators).Total()
}

// Cost returns the exact NTC (eq. 4) of the scheme.
func (s *Scheme) Cost() int64 {
	return NewEvaluator(s.p).Cost(s.x)
}

// ObjectCost returns V_k for object k under this scheme.
func (s *Scheme) ObjectCost(k int) int64 {
	repl := s.AppendReplicators(make([]int32, 0, s.p.m), k)
	return s.p.objectTerms(k, repl).Total()
}

// CostTerms is eq. 4's D split into its three summands: the read traffic of
// non-replicators to their nearest replica, the write traffic of
// non-replicators shipping updates to the primary, and the update fan-in
// every replicator receives from the primary. ReadNTC + WriteNTC +
// UpdateNTC == D exactly.
type CostTerms struct {
	ReadNTC   int64 `json:"read_ntc"`
	WriteNTC  int64 `json:"write_ntc"`
	UpdateNTC int64 `json:"update_ntc"`
}

// Total returns the terms' sum, i.e. D.
func (t CostTerms) Total() int64 { return t.ReadNTC + t.WriteNTC + t.UpdateNTC }

// CostTerms returns the scheme's NTC broken into eq. 4's three terms — the
// per-run manifest's cost decomposition.
func (s *Scheme) CostTerms() CostTerms {
	var t CostTerms
	repl := make([]int32, 0, s.p.m)
	for k := 0; k < s.p.n; k++ {
		repl = s.AppendReplicators(repl[:0], k)
		v := s.p.objectTerms(k, repl)
		t.ReadNTC += v.ReadNTC
		t.WriteNTC += v.WriteNTC
		t.UpdateNTC += v.UpdateNTC
	}
	return t
}

// Savings returns the scheme's % NTC saving over the primaries-only
// allocation.
func (s *Scheme) Savings() float64 { return s.p.Savings(s.Cost()) }

// Benefit computes B_k(i) (eq. 5): the expected NTC reduction per storage
// unit from replicating object k at site i, judged from site i's local
// view. nearestDist must be the current C(i, SN_k(i)) — the distance from i
// to its nearest replica of k before the new replica is placed.
//
//	B_k(i) = ( R_k(i) − [ Wtot_k·o_k·C(i,SP_k) − W_k(i) ] ) / o_k
//
// where R_k(i) = r_k(i)·o_k·nearestDist is the read traffic eliminated,
// Wtot_k·o_k·C(i,SP_k) is the update fan-in the new replica starts paying,
// and W_k(i) = w_k(i)·o_k·C(i,SP_k) is the write-shipping cost site i
// already paid (it is absorbed into the fan-in, so it offsets the penalty).
func (p *Problem) Benefit(i, k int, nearestDist int64) float64 {
	ok := p.size[k]
	cSP := p.dist.At(i, int(p.primary[k]))
	reads := p.reads[i*p.n+k] * ok * nearestDist
	fanIn := p.totalWrites[k] * ok * cSP
	own := p.writes[i*p.n+k] * ok * cSP
	return float64(reads-(fanIn-own)) / float64(ok)
}

// Estimate computes E_k(i) (eq. 6): the rapid O(M)-free replica-benefit
// estimation AGRA uses to pick deallocation victims when a transcription
// overflows a site. Higher values mean the replica is worth keeping;
// deallocate ascending.
//
//	        TotalReads_k + w_k(i) − TotalWrites_k + r_k(i)·s(i)/o_k
//	E_k(i) = ------------------------------------------------------
//	          (Σ_x C(i,x) / mean_l Σ_x C(l,x)) · ReplicaDegree_k
//
// replicaDegree must be ≥ 1 (the object is currently replicated at i).
func (p *Problem) Estimate(i, k, replicaDegree int) float64 {
	if replicaDegree < 1 {
		replicaDegree = 1
	}
	num := float64(p.totalReads[k]+p.writes[i*p.n+k]-p.totalWrites[k]) +
		float64(p.reads[i*p.n+k])*float64(p.cap[i])/float64(p.size[k])
	den := p.propWeight[i] * float64(replicaDegree)
	if den <= 0 {
		den = float64(replicaDegree)
	}
	return num / den
}
