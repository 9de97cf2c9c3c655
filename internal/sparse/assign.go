package sparse

import (
	"fmt"

	"drp/internal/core"
)

// Assignment is the sparse analogue of core.Scheme: a mutable replication
// scheme stored as per-object replica-site lists instead of an M×N bit
// matrix. The same two invariants hold at every mutation — the primary copy
// is never dropped and Σ_k o_k over a site's replicas stays within s(i) —
// and mutations fail with the same sentinel errors (core.ErrCapacity,
// core.ErrPrimary, core.ErrDuplicate, core.ErrAbsent) so callers written
// against the dense scheme match errors unchanged.
//
// Replica lists are kept ascending, so list order is a pure function of the
// set — two assignments holding the same replicas are representation-equal,
// which the shard-determinism tests rely on.
type Assignment struct {
	mo   *Model
	repl [][]int32 // repl[k]: ascending site list, primary always present
	used []int64   // storage consumed per site
}

// NewAssignment returns the primaries-only allocation. The per-object
// replica lists start as length-1 views into one pooled backing array, so
// an N=1e6 instance allocates two slabs, not a million slivers; lists that
// grow past their slot migrate to their own storage on first append.
func NewAssignment(mo *Model) *Assignment {
	m, n := mo.Sites(), mo.Objects()
	backing := make([]int32, n)
	a := &Assignment{
		mo:   mo,
		repl: make([][]int32, n),
		used: make([]int64, m),
	}
	for k := 0; k < n; k++ {
		backing[k] = mo.Primary(k)
		a.repl[k] = backing[k : k+1 : k+1]
	}
	for i := range a.used {
		a.used[i] = mo.PrimaryLoad(i)
	}
	return a
}

// Model returns the instance this assignment belongs to.
func (a *Assignment) Model() *Model { return a.mo }

// Instance returns the eq. 4 instance of the assignment's model.
func (a *Assignment) Instance() *core.Instance { return a.mo.Instance }

// Has reports whether site i holds a replica of object k.
func (a *Assignment) Has(i, k int) bool {
	_, found := core.SearchSites(a.repl[k], int32(i))
	return found
}

// Used returns the storage consumed at site i.
func (a *Assignment) Used(i int) int64 { return a.used[i] }

// Free returns the remaining capacity b(i) at site i.
func (a *Assignment) Free(i int) int64 { return a.mo.Capacity(i) - a.used[i] }

// Replicators returns object k's replica sites, ascending — a live view;
// callers must not modify it.
func (a *Assignment) Replicators(k int) []int32 { return a.repl[k] }

// AppendReplicators appends object k's replica sites, ascending, to dst
// and returns the extended slice.
func (a *Assignment) AppendReplicators(dst []int32, k int) []int32 {
	return append(dst, a.repl[k]...)
}

// ReplicaLists returns every object's replica list, indexed by object — a
// live view for core.EvalPool; callers must not modify it.
func (a *Assignment) ReplicaLists() [][]int32 { return a.repl }

// ReplicaDegree returns |R_k|.
func (a *Assignment) ReplicaDegree(k int) int { return len(a.repl[k]) }

// TotalReplicas returns the replica count beyond the N primary copies.
func (a *Assignment) TotalReplicas() int {
	total := 0
	for _, l := range a.repl {
		total += len(l) - 1
	}
	return total
}

// Add places a replica of object k at site i.
func (a *Assignment) Add(i, k int) error {
	idx, found := core.SearchSites(a.repl[k], int32(i))
	if found {
		return core.ErrDuplicate
	}
	if a.Free(i) < a.mo.Size(k) {
		return core.ErrCapacity
	}
	list := a.repl[k]
	if len(list) < cap(list) {
		list = list[:len(list)+1]
		copy(list[idx+1:], list[idx:])
	} else {
		grown := make([]int32, len(list)+1, len(list)+2)
		copy(grown, list[:idx])
		copy(grown[idx+1:], list[idx:])
		list = grown
	}
	list[idx] = int32(i)
	a.repl[k] = list
	a.used[i] += a.mo.Size(k)
	return nil
}

// Remove drops the replica of object k from site i. Primary copies cannot
// be removed.
func (a *Assignment) Remove(i, k int) error {
	idx, found := core.SearchSites(a.repl[k], int32(i))
	if !found {
		return core.ErrAbsent
	}
	if a.mo.Primary(k) == int32(i) {
		return core.ErrPrimary
	}
	list := a.repl[k]
	copy(list[idx:], list[idx+1:])
	a.repl[k] = list[:len(list)-1]
	a.used[i] -= a.mo.Size(k)
	return nil
}

// SetReplicators replaces object k's whole replica set (ascending site
// list, primary included), adjusting usage. Used by AGRA transcription;
// fails with the matching core sentinel if the list is malformed or the
// swap would overflow a site.
func (a *Assignment) SetReplicators(k int, sites []int32) error {
	prev := int32(-1)
	hasPrimary := false
	for _, s := range sites {
		if s <= prev {
			return fmt.Errorf("sparse: replica list for object %d not strictly ascending", k)
		}
		if s < 0 || int(s) >= a.mo.Sites() {
			return fmt.Errorf("sparse: replica list for object %d references site %d of %d", k, s, a.mo.Sites())
		}
		prev = s
		if s == a.mo.Primary(k) {
			hasPrimary = true
		}
	}
	if !hasPrimary {
		return core.ErrPrimary
	}
	// Adjust usage as remove-all + add-all; check capacity before mutating.
	delta := make(map[int32]int64, len(sites)+len(a.repl[k]))
	for _, s := range a.repl[k] {
		delta[s] -= a.mo.Size(k)
	}
	for _, s := range sites {
		delta[s] += a.mo.Size(k)
	}
	for s, d := range delta {
		if d > 0 && a.Free(int(s)) < d {
			return core.ErrCapacity
		}
	}
	for s, d := range delta {
		a.used[s] += d
	}
	a.repl[k] = append(a.repl[k][:0:0], sites...)
	return nil
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	out := &Assignment{
		mo:   a.mo,
		repl: make([][]int32, a.mo.Objects()),
		used: append([]int64(nil), a.used...),
	}
	backing := make([]int32, 0, a.mo.Objects()+a.TotalReplicas())
	for k, l := range a.repl {
		start := len(backing)
		backing = append(backing, l...)
		out.repl[k] = backing[start:len(backing):len(backing)]
	}
	return out
}

// Equal reports whether two assignments place identical replicas.
func (a *Assignment) Equal(other *Assignment) bool {
	if a.mo != other.mo {
		return false
	}
	for k := range a.repl {
		if len(a.repl[k]) != len(other.repl[k]) {
			return false
		}
		for idx, s := range a.repl[k] {
			if other.repl[k][idx] != s {
				return false
			}
		}
	}
	return true
}

// ToScheme converts into a dense core.Scheme over the equivalent dense
// problem — the bridge the differential tests cross.
func (a *Assignment) ToScheme(p *core.Problem) (*core.Scheme, error) {
	if p.Sites() != a.mo.Sites() || p.Objects() != a.mo.Objects() {
		return nil, fmt.Errorf("sparse: problem is %d×%d, assignment is %d×%d", p.Sites(), p.Objects(), a.mo.Sites(), a.mo.Objects())
	}
	s := core.NewScheme(p)
	for k, l := range a.repl {
		for _, i := range l {
			if int(i) == p.Primary(k) {
				continue
			}
			if err := s.Add(int(i), k); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// FromScheme converts a dense scheme into a sparse assignment over mo
// (dimensions must agree). Replicas outside the candidate lists are
// accepted: pruning constrains what the solver proposes, not what the
// representation can hold or evaluate, so schemes produced by the dense
// algorithms always convert.
func FromScheme(mo *Model, s *core.Scheme) (*Assignment, error) {
	p := s.Problem()
	if p.Sites() != mo.Sites() || p.Objects() != mo.Objects() {
		return nil, fmt.Errorf("sparse: scheme is %d×%d, model is %d×%d", p.Sites(), p.Objects(), mo.Sites(), mo.Objects())
	}
	a := NewAssignment(mo)
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range s.Replicators(k) {
			if int32(i) == mo.Primary(k) {
				continue
			}
			if err := a.Add(i, k); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// Validate re-checks both DRP constraints from scratch, mirroring
// core.Scheme.Validate.
func (a *Assignment) Validate() error {
	usage := make([]int64, a.mo.Sites())
	for k, l := range a.repl {
		prev := int32(-1)
		hasPrimary := false
		for _, s := range l {
			if s <= prev {
				return fmt.Errorf("sparse: object %d replica list not ascending", k)
			}
			prev = s
			usage[s] += a.mo.Size(k)
			if s == a.mo.Primary(k) {
				hasPrimary = true
			}
		}
		if !hasPrimary {
			return fmt.Errorf("sparse: object %d lost its primary copy", k)
		}
	}
	for i := 0; i < a.mo.Sites(); i++ {
		if usage[i] != a.used[i] {
			return fmt.Errorf("sparse: site %d tracked usage %d != actual %d", i, a.used[i], usage[i])
		}
		if usage[i] > a.mo.Capacity(i) {
			return fmt.Errorf("sparse: site %d over capacity: %d > %d", i, usage[i], a.mo.Capacity(i))
		}
	}
	return nil
}
