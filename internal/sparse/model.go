// Package sparse is the million-object solver core. The dense path
// materialises M×N read/write matrices and M·N-bit chromosomes, which caps
// instances at toy scale; this package exploits the structural sparsity of
// real workloads — most objects are read from few sites ("Optimal Data
// Placement on Networks With Constant Number of Clients", PAPERS.md) — with
// three ingredients:
//
//   - CSR-style access vectors: the shared core.Instance stores per-object
//     (site, count) lists for reads and writes, pooled into four flat
//     arrays, so an N=1e6 × M=100 instance with ~10 accessing sites per
//     object costs ~100 MB instead of the ~1.6 GB two dense matrices would
//     need;
//   - candidate-site pruning: per object, the sites at which a replica could
//     ever pay for its update fan-in (plus the primary), computed from a
//     sound upper bound on the achievable saving and from capacity
//     reachability — the solver never considers a pruned (site, object)
//     pair, and internal/verify proves the dense optimum survives pruning;
//   - object-space sharding: objects couple only through per-site capacity,
//     so per-object search fans out across workers and a deterministic
//     capacity-ledger merge reconciles the proposals (solve.go).
//
// Eq. 4 itself is not re-implemented here: Evaluator, the delta evaluator
// and the evaluation pool are internal/core's, called with an Assignment's
// per-object replica lists, so sparse and dense costs come from one kernel.
package sparse

import (
	"drp/internal/core"
	"drp/internal/parallel"
)

// Model is an immutable sparse DRP instance: the shared eq. 4
// core.Instance (object-major CSR access patterns, validated once) plus
// per-object candidate site lists.
type Model struct {
	*core.Instance

	// Candidate lists, pooled: object k may hold replicas only at
	// candSite[candOff[k]:candOff[k+1]] (ascending, primary always present).
	candOff  []int32
	candSite []int32
}

// NewModel validates cfg through core.NewInstance (which retains the
// slices rather than copying them) and computes the pruned candidate
// lists.
func NewModel(cfg core.InstanceConfig) (*Model, error) {
	in, err := core.NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	return newModel(in), nil
}

func newModel(in *core.Instance) *Model {
	mo := &Model{Instance: in}
	mo.buildCandidates()
	return mo
}

// buildCandidates computes the pruned candidate-site list of every object.
//
// Site i ≠ SP_k is pruned when either
//
//   - capacity reachability: primaryLoad(i) + o_k > s(i) — the primaries
//     pinned to i already leave no room, so no valid scheme can ever place
//     k there; or
//
//   - the benefit bound: the largest saving a replica at i can contribute
//     to ANY replica set never exceeds the update fan-in it must pay,
//
//     (r_k(i)+w_k(i))·C(i,SP_k) + Σ_{j≠i} r_k(j)·max(0, C(j,SP_k)−C(j,i))
//     ≤ Wtot_k·C(i,SP_k)
//
//     (common factor o_k divided out). The left side bounds the saving
//     because every reader's nearest-replica distance is at most
//     C(j,SP_k) — the primary is always a replicator — and a new replica
//     can lower it to no less than C(j,i); the right side is exact and
//     unavoidable. With ≤, adding i to any set never strictly lowers D, so
//     baseline.Optimal — which enumerates bit-off before bit-on and only
//     replaces its best on a strict improvement — can never return a scheme
//     using a pruned pair; the sparse-prune verify check asserts exactly
//     that. The rule depends only on relabelling-invariant quantities, so
//     candidate sets are permutation-equivariant like eq. 4 itself.
//
// Saturating arithmetic on the saving side only ever keeps a candidate, so
// extreme magnitudes degrade pruning, never correctness.
func (mo *Model) buildCandidates() {
	m, n := mo.Sites(), mo.Objects()
	lists := make([][]int32, n)
	workers := parallel.Workers(0)
	type scratch struct {
		rAt     []int64
		wAt     []int64
		touched []int32
	}
	scratches := make([]scratch, workers)
	for w := range scratches {
		scratches[w] = scratch{rAt: make([]int64, m), wAt: make([]int64, m)}
	}
	dist := mo.Dist()
	parallel.ForWorker(n, workers, func(w, k int) {
		sc := &scratches[w]
		sp := int(mo.Primary(k))
		spCol := dist.Row(sp) // C(sp,·) = C(·,sp); the matrix is symmetric
		rs, rc := mo.ReadEntries(k)
		ws, wc := mo.WriteEntries(k)
		sc.touched = sc.touched[:0]
		for idx, site := range rs {
			sc.rAt[site] = rc[idx]
			sc.touched = append(sc.touched, site)
		}
		for idx, site := range ws {
			sc.wAt[site] = wc[idx]
			sc.touched = append(sc.touched, site)
		}
		wTot := mo.TotalWrites(k)
		sz := mo.Size(k)
		cand := make([]int32, 0, 8)
		for i := 0; i < m; i++ {
			if i == sp {
				cand = append(cand, int32(i))
				continue
			}
			if mo.PrimaryLoad(i)+sz > mo.Capacity(i) {
				continue
			}
			cSP := spCol[i]
			fanIn := wTot * cSP // bounded by the NTC gate; exact
			saving := core.SatMul(sc.rAt[i]+sc.wAt[i], cSP)
			rowI := dist.Row(i)
			for idx, j := range rs {
				if int(j) == i {
					continue
				}
				if drop := spCol[j] - rowI[j]; drop > 0 {
					saving = core.SatAdd(saving, core.SatMul(rc[idx], drop))
				}
			}
			if saving > fanIn {
				cand = append(cand, int32(i))
			}
		}
		lists[k] = cand
		for _, site := range sc.touched {
			sc.rAt[site] = 0
			sc.wAt[site] = 0
		}
	})
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	mo.candOff = make([]int32, n+1)
	mo.candSite = make([]int32, 0, total)
	for k, l := range lists {
		mo.candSite = append(mo.candSite, l...)
		mo.candOff[k+1] = int32(len(mo.candSite))
	}
}

// FromProblem builds the sparse model of a dense instance. The problem's
// already-validated core.Instance — CSR patterns with zero entries dropped,
// distances, derived caches — is shared, not rebuilt.
func FromProblem(p *core.Problem) *Model { return newModel(p.Instance) }

// Candidates returns object k's candidate sites, ascending, primary
// included — a view into the pooled array; callers must not modify it.
func (mo *Model) Candidates(k int) []int32 {
	return mo.candSite[mo.candOff[k]:mo.candOff[k+1]]
}

// CandidateCount returns the total candidate-list length across objects
// (the solver's search-space size after pruning).
func (mo *Model) CandidateCount() int { return len(mo.candSite) }
