package core

import (
	"fmt"
	"math"

	"drp/internal/netsim"
)

// CSR is a compressed sparse row access pattern over objects: object k's
// entries are Site[Off[k]:Off[k+1]] (strictly ascending site indices) with
// parallel counts Cnt[Off[k]:Off[k+1]]. Offsets are int32 — ample, since
// even a fully dense 1e6×100 instance has 1e8 entries — to halve index
// memory.
type CSR struct {
	Off  []int32 // length N+1, non-decreasing, Off[0] = 0
	Site []int32 // ascending within each object, in [0, M)
	Cnt  []int64 // non-negative counts, parallel to Site
}

// Range returns object k's entry range.
func (c *CSR) Range(k int) (int32, int32) { return c.Off[k], c.Off[k+1] }

// validate checks CSR well-formedness for n objects over m sites.
func (c *CSR) validate(kind string, m, n int) error {
	if len(c.Off) != n+1 {
		return fmt.Errorf("core: %s offsets have length %d, want %d", kind, len(c.Off), n+1)
	}
	if c.Off[0] != 0 {
		return fmt.Errorf("core: %s offsets must start at 0, got %d", kind, c.Off[0])
	}
	if len(c.Site) != len(c.Cnt) {
		return fmt.Errorf("core: %s has %d sites but %d counts", kind, len(c.Site), len(c.Cnt))
	}
	if int(c.Off[n]) != len(c.Site) {
		return fmt.Errorf("core: %s offsets end at %d but %d entries exist", kind, c.Off[n], len(c.Site))
	}
	for k := 0; k < n; k++ {
		lo, hi := c.Off[k], c.Off[k+1]
		if hi < lo {
			return fmt.Errorf("core: %s offsets decrease at object %d", kind, k)
		}
		prev := int32(-1)
		for idx := lo; idx < hi; idx++ {
			site := c.Site[idx]
			if site < 0 || int(site) >= m {
				return fmt.Errorf("core: %s object %d references site %d of %d", kind, k, site, m)
			}
			if site <= prev {
				return fmt.Errorf("core: %s object %d sites not strictly ascending at entry %d", kind, k, idx-lo)
			}
			prev = site
			if c.Cnt[idx] < 0 {
				return fmt.Errorf("core: %s object %d has negative count at site %d", kind, k, site)
			}
		}
	}
	return nil
}

// InstanceConfig carries the raw inputs of an eq. 4 instance into
// NewInstance. Slices are retained, not copied — callers hand over
// ownership, so a million-object instance is never duplicated.
type InstanceConfig struct {
	Sizes      []int64 // o_k, positive
	Capacities []int64 // s(i), non-negative
	Primaries  []int32 // SP_k
	Reads      CSR     // r_k(i) for the sites that read k
	Writes     CSR     // w_k(i) for the sites that write k
	Dist       *netsim.DistMatrix
}

// Instance is an immutable eq. 4 instance stored object-major: the inputs
// of D = Σ_k V_k, its validation gates and the per-object kernel every
// evaluator calls. The dense Problem and the sparse solver's model are both
// built on one.
type Instance struct {
	m, n     int
	size     []int64
	cap      []int64
	primary  []int32
	readCSR  CSR
	writeCSR CSR
	dist     *netsim.DistMatrix

	totalReads  []int64
	totalWrites []int64
	vPrime      []int64 // per-object NTC of the primaries-only allocation
	dPrime      int64   // D of the primaries-only allocation
	primaryLoad []int64 // Σ o_k over objects with SP_k = i: the floor of any valid usage
}

// NewInstance validates cfg and builds the instance with its derived
// caches. The gates: a valid distance matrix (symmetric, zero diagonal,
// positive off-diagonal costs — the kernel's nearest-replica search relies
// on it), matching dimensions within the int32 offset range, positive
// sizes, non-negative capacities, primaries that fit their sites,
// well-formed CSR patterns, and the worst-case-NTC int64 bound.
func NewInstance(cfg InstanceConfig) (*Instance, error) {
	if cfg.Dist == nil {
		return nil, fmt.Errorf("core: nil distance matrix")
	}
	m := cfg.Dist.Sites()
	n := len(cfg.Sizes)
	if n == 0 {
		return nil, fmt.Errorf("core: no objects")
	}
	if len(cfg.Capacities) != m {
		return nil, fmt.Errorf("core: %d capacities for %d sites", len(cfg.Capacities), m)
	}
	if len(cfg.Primaries) != n {
		return nil, fmt.Errorf("core: %d primaries for %d objects", len(cfg.Primaries), n)
	}
	if int64(m)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d sites × %d objects exceeds the int32 offset range", m, n)
	}
	if err := cfg.Dist.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	in := &Instance{
		m:        m,
		n:        n,
		size:     cfg.Sizes,
		cap:      cfg.Capacities,
		primary:  cfg.Primaries,
		readCSR:  cfg.Reads,
		writeCSR: cfg.Writes,
		dist:     cfg.Dist,
	}
	for k, sz := range in.size {
		if sz <= 0 {
			return nil, fmt.Errorf("core: object %d has non-positive size %d", k, sz)
		}
	}
	for i, c := range in.cap {
		if c < 0 {
			return nil, fmt.Errorf("core: site %d has negative capacity %d", i, c)
		}
	}
	// Σ o_k must fit int64: every storage-accounting quantity (per-site
	// usage, primary loads) is bounded by it, so this one checked sum makes
	// all later size arithmetic overflow-free.
	var sizeSum int64
	for k, sz := range in.size {
		var ok bool
		if sizeSum, ok = addNonNeg(sizeSum, sz); !ok {
			return nil, fmt.Errorf("core: object sizes overflow int64 at object %d", k)
		}
	}
	in.primaryLoad = make([]int64, m)
	for k, sp := range in.primary {
		if sp < 0 || int(sp) >= m {
			return nil, fmt.Errorf("core: object %d has out-of-range primary %d", k, sp)
		}
		in.primaryLoad[sp] += in.size[k]
	}
	// The primary-copy constraint forces X[SP_k][k] = 1, so an instance
	// whose primaries overflow a site admits no feasible scheme at all.
	for i, use := range in.primaryLoad {
		if use > in.cap[i] {
			return nil, fmt.Errorf("core: infeasible instance: primaries at site %d need %d units, capacity is %d", i, use, in.cap[i])
		}
	}
	if err := in.readCSR.validate("read pattern", m, n); err != nil {
		return nil, err
	}
	if err := in.writeCSR.validate("write pattern", m, n); err != nil {
		return nil, err
	}
	if err := in.buildCaches(); err != nil {
		return nil, err
	}
	return in, nil
}

// WithAccess returns an instance sharing in's sizes, capacities, primaries
// and distances but carrying new read/write patterns, validated like any
// other instance.
func (in *Instance) WithAccess(reads, writes CSR) (*Instance, error) {
	return NewInstance(InstanceConfig{
		Sizes:      in.size,
		Capacities: in.cap,
		Primaries:  in.primary,
		Reads:      reads,
		Writes:     writes,
		Dist:       in.dist,
	})
}

// addNonNeg returns a+b and whether the sum of the two non-negative values
// stayed within int64.
func addNonNeg(a, b int64) (int64, bool) {
	s := a + b
	return s, s >= a
}

// mulNonNeg returns a·b and whether the product of the two non-negative
// values stayed within int64.
func mulNonNeg(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	prod := a * b
	return prod, prod/a == b && prod >= 0
}

// SatAdd and SatMul are saturating variants of non-negative int64 addition
// and multiplication: a result that would overflow is clamped to
// math.MaxInt64.
func SatAdd(a, b int64) int64 {
	if s, ok := addNonNeg(a, b); ok {
		return s
	}
	return math.MaxInt64
}

// SatMul is the saturating product; see SatAdd.
func SatMul(a, b int64) int64 {
	if p, ok := mulNonNeg(a, b); ok {
		return p
	}
	return math.MaxInt64
}

func (in *Instance) buildCaches() error {
	in.totalReads = make([]int64, in.n)
	in.totalWrites = make([]int64, in.n)
	for k := 0; k < in.n; k++ {
		_, rc := in.ReadEntries(k)
		for _, c := range rc {
			var ok bool
			if in.totalReads[k], ok = addNonNeg(in.totalReads[k], c); !ok {
				return fmt.Errorf("core: read total for object %d overflows int64", k)
			}
		}
		_, wc := in.WriteEntries(k)
		for _, c := range wc {
			var ok bool
			if in.totalWrites[k], ok = addNonNeg(in.totalWrites[k], c); !ok {
				return fmt.Errorf("core: write total for object %d overflows int64", k)
			}
		}
	}
	// Worst-case NTC bound: any scheme's eq. 4 cost is at most
	// Σ_k (1 + Rtot_k + (M+1)·Wtot_k)·o_k·maxC (reads from the farthest
	// replica, every site a replicator paying the full update fan-in, plus
	// one object-transfer term covering migration accounting). If that bound
	// fits int64, every cost the evaluators, delta evaluator, sparse merge
	// and cluster simulator can compute fits too — so the hot paths never
	// need per-term overflow checks, even at N=1e6.
	var maxC int64
	for i := 0; i < in.m; i++ {
		for _, c := range in.dist.Row(i) {
			if c > maxC {
				maxC = c
			}
		}
	}
	var bound int64
	for k := 0; k < in.n; k++ {
		fanIn, ok := mulNonNeg(int64(in.m)+1, in.totalWrites[k])
		if !ok {
			return errMagnitude(k)
		}
		traffic, ok := addNonNeg(in.totalReads[k], fanIn)
		if !ok {
			return errMagnitude(k)
		}
		traffic, ok = addNonNeg(traffic, 1)
		if !ok {
			return errMagnitude(k)
		}
		vol, ok := mulNonNeg(traffic, in.size[k])
		if !ok {
			return errMagnitude(k)
		}
		cost, ok := mulNonNeg(vol, maxC)
		if !ok {
			return errMagnitude(k)
		}
		if bound, ok = addNonNeg(bound, cost); !ok {
			return errMagnitude(k)
		}
	}
	in.vPrime = make([]int64, in.n)
	for k := 0; k < in.n; k++ {
		in.vPrime[k] = in.objectTerms(k, nil).Total()
		in.dPrime += in.vPrime[k]
	}
	return nil
}

func errMagnitude(k int) error {
	return fmt.Errorf("core: traffic volume of object %d overflows the int64 cost range", k)
}

// Sites returns M, the number of sites.
func (in *Instance) Sites() int { return in.m }

// Objects returns N, the number of objects.
func (in *Instance) Objects() int { return in.n }

// Size returns o_k.
func (in *Instance) Size(k int) int64 { return in.size[k] }

// Capacity returns s(i).
func (in *Instance) Capacity(i int) int64 { return in.cap[i] }

// Primary returns SP_k.
func (in *Instance) Primary(k int) int32 { return in.primary[k] }

// PrimaryLoad returns the storage the primary copies pin at site i.
func (in *Instance) PrimaryLoad(i int) int64 { return in.primaryLoad[i] }

// TotalReads returns Σ_i r_k(i).
func (in *Instance) TotalReads(k int) int64 { return in.totalReads[k] }

// TotalWrites returns Σ_i w_k(i), the update fan-in each replica of k pays.
func (in *Instance) TotalWrites(k int) int64 { return in.totalWrites[k] }

// Cost returns the per-unit transfer cost C(i,j).
func (in *Instance) Cost(i, j int) int64 { return in.dist.At(i, j) }

// Dist exposes the distance matrix (read-only by convention).
func (in *Instance) Dist() *netsim.DistMatrix { return in.dist }

// DPrime returns the NTC of the initial allocation in which each object
// exists only at its primary site. It is the paper's normaliser for both
// the GRA fitness and the reported "% NTC savings".
func (in *Instance) DPrime() int64 { return in.dPrime }

// VPrime returns the per-object NTC of the primaries-only allocation.
func (in *Instance) VPrime(k int) int64 { return in.vPrime[k] }

// TotalObjectSize returns Σ_k o_k.
func (in *Instance) TotalObjectSize() int64 {
	var total int64
	for _, sz := range in.size {
		total += sz
	}
	return total
}

// ReadEntries returns object k's reader sites and counts as views into the
// pooled CSR arrays; callers must not modify them.
func (in *Instance) ReadEntries(k int) ([]int32, []int64) {
	lo, hi := in.readCSR.Range(k)
	return in.readCSR.Site[lo:hi], in.readCSR.Cnt[lo:hi]
}

// WriteEntries returns object k's writer sites and counts.
func (in *Instance) WriteEntries(k int) ([]int32, []int64) {
	lo, hi := in.writeCSR.Range(k)
	return in.writeCSR.Site[lo:hi], in.writeCSR.Cnt[lo:hi]
}

// AccessEntries returns the pooled entry totals (reads, writes) — the
// instance's nnz.
func (in *Instance) AccessEntries() (int, int) {
	return len(in.readCSR.Site), len(in.writeCSR.Site)
}

// Savings converts a cost into the paper's quality metric:
// 100·(D_prime − D)/D_prime percent of the primaries-only NTC saved.
func (in *Instance) Savings(cost int64) float64 {
	if in.dPrime == 0 {
		return 0
	}
	return 100 * float64(in.dPrime-cost) / float64(in.dPrime)
}
