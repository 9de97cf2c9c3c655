package core

import (
	"errors"
	"fmt"

	"drp/internal/bitset"
)

// Scheme is a mutable replication scheme: the boolean M×N matrix X of the
// paper, with the invariants enforced at every mutation:
//
//   - X[SP_k][k] = 1 (primary copies can never be dropped), and
//   - Σ_k X[i][k]·o_k ≤ s(i) (site capacity).
//
// Bits are stored site-major to match the GRA chromosome encoding: bit
// i·N+k is X[i][k].
type Scheme struct {
	p    *Problem
	x    *bitset.Set
	used []int64 // storage consumed per site
}

// Mutation errors callers may want to match.
var (
	ErrCapacity  = errors.New("core: replica does not fit site capacity")
	ErrPrimary   = errors.New("core: primary copies cannot be removed")
	ErrDuplicate = errors.New("core: replica already present")
	ErrAbsent    = errors.New("core: replica not present")
)

// NewScheme returns the initial allocation: every object only at its
// primary site.
func NewScheme(p *Problem) *Scheme {
	s := &Scheme{
		p:    p,
		x:    bitset.New(p.m * p.n),
		used: make([]int64, p.m),
	}
	for k := 0; k < p.n; k++ {
		sp := p.Primary(k)
		s.x.Set(sp*p.n + k)
		s.used[sp] += p.size[k]
	}
	return s
}

// SchemeFromBits builds a Scheme from a raw site-major bitset (for example a
// GA chromosome). The bitset is cloned. An error is returned if a primary
// bit is missing or a site exceeds its capacity.
func SchemeFromBits(p *Problem, x *bitset.Set) (*Scheme, error) {
	if x.Len() != p.m*p.n {
		return nil, fmt.Errorf("core: bitset length %d, want %d", x.Len(), p.m*p.n)
	}
	s := &Scheme{p: p, x: x.Clone(), used: make([]int64, p.m)}
	for i := 0; i < p.m; i++ {
		for k := s.x.NextSet(i * p.n); k >= 0 && k < (i+1)*p.n; k = s.x.NextSet(k + 1) {
			s.used[i] += p.size[k-i*p.n]
		}
		if s.used[i] > p.cap[i] {
			return nil, fmt.Errorf("core: site %d uses %d of %d: %w", i, s.used[i], p.cap[i], ErrCapacity)
		}
	}
	for k := 0; k < p.n; k++ {
		if !s.x.Test(p.Primary(k)*p.n + k) {
			return nil, fmt.Errorf("core: object %d missing primary copy at site %d", k, p.Primary(k))
		}
	}
	return s, nil
}

// Problem returns the instance this scheme belongs to.
func (s *Scheme) Problem() *Problem { return s.p }

// Has reports whether site i holds a replica of object k.
func (s *Scheme) Has(i, k int) bool { return s.x.Test(i*s.p.n + k) }

// Used returns the storage consumed at site i.
func (s *Scheme) Used(i int) int64 { return s.used[i] }

// Free returns the remaining capacity b(i) at site i.
func (s *Scheme) Free(i int) int64 { return s.p.cap[i] - s.used[i] }

// Add places a replica of object k at site i.
func (s *Scheme) Add(i, k int) error {
	if s.Has(i, k) {
		return ErrDuplicate
	}
	if s.Free(i) < s.p.size[k] {
		return ErrCapacity
	}
	s.x.Set(i*s.p.n + k)
	s.used[i] += s.p.size[k]
	return nil
}

// Remove drops the replica of object k from site i. Primary copies cannot
// be removed.
func (s *Scheme) Remove(i, k int) error {
	if !s.Has(i, k) {
		return ErrAbsent
	}
	if s.p.Primary(k) == i {
		return ErrPrimary
	}
	s.x.Clear(i*s.p.n + k)
	s.used[i] -= s.p.size[k]
	return nil
}

// Replicators returns the sites holding object k, ascending. The primary is
// always among them.
func (s *Scheme) Replicators(k int) []int {
	var out []int
	for i := 0; i < s.p.m; i++ {
		if s.Has(i, k) {
			out = append(out, i)
		}
	}
	return out
}

// AppendReplicators appends the sites holding object k, ascending, to dst
// and returns the extended slice.
func (s *Scheme) AppendReplicators(dst []int32, k int) []int32 {
	for i := 0; i < s.p.m; i++ {
		if s.Has(i, k) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Instance returns the eq. 4 instance the scheme places replicas over.
func (s *Scheme) Instance() *Instance { return s.p.Instance }

// ReplicaDegree returns |R_k|, the number of replicas of object k.
func (s *Scheme) ReplicaDegree(k int) int {
	deg := 0
	for i := 0; i < s.p.m; i++ {
		if s.Has(i, k) {
			deg++
		}
	}
	return deg
}

// TotalReplicas returns the number of replicas beyond the N primary copies
// — the "number of replicas created" the paper plots in Figures 1(b) and
// 1(d).
func (s *Scheme) TotalReplicas() int {
	return s.x.Count() - s.p.n
}

// Bits returns a clone of the underlying site-major bit matrix.
func (s *Scheme) Bits() *bitset.Set { return s.x.Clone() }

// Clone returns a deep copy.
func (s *Scheme) Clone() *Scheme {
	return &Scheme{
		p:    s.p,
		x:    s.x.Clone(),
		used: append([]int64(nil), s.used...),
	}
}

// Equal reports whether two schemes place identical replicas.
func (s *Scheme) Equal(other *Scheme) bool {
	return s.p == other.p && s.x.Equal(other.x)
}

// Validate re-checks both DRP constraints from scratch. A healthy Scheme
// always passes; it exists to catch programming errors in algorithm code
// and for use in tests.
func (s *Scheme) Validate() error {
	usage := make([]int64, s.p.m)
	for i := 0; i < s.p.m; i++ {
		for k := 0; k < s.p.n; k++ {
			if s.Has(i, k) {
				usage[i] += s.p.size[k]
			}
		}
		if usage[i] != s.used[i] {
			return fmt.Errorf("core: site %d tracked usage %d != actual %d", i, s.used[i], usage[i])
		}
		if usage[i] > s.p.cap[i] {
			return fmt.Errorf("core: site %d over capacity: %d > %d", i, usage[i], s.p.cap[i])
		}
	}
	for k := 0; k < s.p.n; k++ {
		if !s.Has(s.p.Primary(k), k) {
			return fmt.Errorf("core: object %d lost its primary copy", k)
		}
	}
	return nil
}
