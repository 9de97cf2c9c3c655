package sparse

import (
	"fmt"
	"slices"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/xrand"
)

// WorkloadSpec parameterises the sparse instance generator: the Section 6.1
// constants (per-site read counts U(1,40), link costs U(1,10), object sizes
// U(1,69), capacities around a ratio of Σ o_k) restricted to the
// few-accessing-sites structure of "Optimal Data Placement on Networks With
// Constant Number of Clients" — each object is read from at most
// ReaderSites and written from at most WriterSites distinct sites, however
// many objects there are. That bounded nnz per object is what makes the
// CSR representation and candidate pruning pay at N=1e6.
type WorkloadSpec struct {
	Sites   int // M
	Objects int // N

	ReaderSites int // per-object distinct reader-site count ~ U(1, ReaderSites)
	WriterSites int // per-object distinct writer-site count ~ U(0, WriterSites)

	ReadMin, ReadMax   int // per reader-site counts, paper: 1..40
	WriteMin, WriteMax int // per writer-site counts (≈ the paper's 2–10% update ratios)
	LinkMin, LinkMax   int // per-link cost, paper: 1..10
	SizeMean           int // object size mean, paper: 35 (sizes U(1, 2·mean−1))

	CapacityRatio float64 // site capacity as a fraction of Σ o_k
}

// NewWorkloadSpec returns the defaults for M sites and N objects: ~10
// reader sites and ~3 writer sites per object, read counts U(1,40), write
// counts U(1,4) (≈5% update ratio), links U(1,10), size mean 35, capacity
// ratio 0.15 — the mid-points of the paper's sweeps.
func NewWorkloadSpec(sites, objects int) WorkloadSpec {
	readers := 10
	if readers > sites {
		readers = sites
	}
	writers := 3
	if writers > sites {
		writers = sites
	}
	return WorkloadSpec{
		Sites:         sites,
		Objects:       objects,
		ReaderSites:   readers,
		WriterSites:   writers,
		ReadMin:       1,
		ReadMax:       40,
		WriteMin:      1,
		WriteMax:      4,
		LinkMin:       1,
		LinkMax:       10,
		SizeMean:      35,
		CapacityRatio: 0.15,
	}
}

func (s WorkloadSpec) validate() error {
	switch {
	case s.Sites <= 0:
		return fmt.Errorf("sparse: need at least one site, got %d", s.Sites)
	case s.Objects <= 0:
		return fmt.Errorf("sparse: need at least one object, got %d", s.Objects)
	case s.ReaderSites < 1 || s.ReaderSites > s.Sites:
		return fmt.Errorf("sparse: reader-site bound %d outside [1,%d]", s.ReaderSites, s.Sites)
	case s.WriterSites < 0 || s.WriterSites > s.Sites:
		return fmt.Errorf("sparse: writer-site bound %d outside [0,%d]", s.WriterSites, s.Sites)
	case s.ReadMin < 0 || s.ReadMax < s.ReadMin:
		return fmt.Errorf("sparse: bad read range [%d,%d]", s.ReadMin, s.ReadMax)
	case s.WriteMin < 0 || s.WriteMax < s.WriteMin:
		return fmt.Errorf("sparse: bad write range [%d,%d]", s.WriteMin, s.WriteMax)
	case s.LinkMin < 1 || s.LinkMax < s.LinkMin:
		return fmt.Errorf("sparse: bad link cost range [%d,%d]", s.LinkMin, s.LinkMax)
	case s.SizeMean < 1:
		return fmt.Errorf("sparse: object size mean %d < 1", s.SizeMean)
	case s.CapacityRatio < 0:
		return fmt.Errorf("sparse: negative capacity ratio %v", s.CapacityRatio)
	}
	return nil
}

// sampler draws k distinct sites by a partial Fisher–Yates over one
// reusable permutation — O(k) per draw with no per-object allocation. The
// permutation is never reset: a partial shuffle of any permutation yields
// uniform distinct samples, and the evolving state is a deterministic
// function of the RNG stream.
type sampler struct {
	perm []int32
}

func newSampler(m int) *sampler {
	s := &sampler{perm: make([]int32, m)}
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	return s
}

// draw writes k distinct sites into out, ascending, and returns it.
func (s *sampler) draw(k int, rng *xrand.Source, out []int32) []int32 {
	out = out[:0]
	for idx := 0; idx < k; idx++ {
		swap := idx + rng.Intn(len(s.perm)-idx)
		s.perm[idx], s.perm[swap] = s.perm[swap], s.perm[idx]
		out = append(out, s.perm[idx])
	}
	slices.Sort(out)
	return out
}

// GenerateWorkload builds one random sparse instance. Identical seeds
// produce identical models.
func GenerateWorkload(spec WorkloadSpec, seed uint64) (*Model, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	m, n := spec.Sites, spec.Objects

	var dist *netsim.DistMatrix
	if m == 1 {
		dist = netsim.NewDistMatrix(1)
	} else {
		topo := netsim.CompleteUniform(m, int64(spec.LinkMin), int64(spec.LinkMax), rng)
		var err error
		dist, err = topo.Distances()
		if err != nil {
			return nil, fmt.Errorf("sparse: %w", err)
		}
	}

	cfg := core.InstanceConfig{
		Sizes:      make([]int64, n),
		Capacities: make([]int64, m),
		Primaries:  make([]int32, n),
		Dist:       dist,
	}
	cfg.Reads.Off = make([]int32, n+1)
	cfg.Writes.Off = make([]int32, n+1)
	avgNnz := spec.ReaderSites/2 + spec.WriterSites/2 + 2
	cfg.Reads.Site = make([]int32, 0, n*avgNnz)
	cfg.Reads.Cnt = make([]int64, 0, n*avgNnz)

	var totalSize int64
	smp := newSampler(m)
	scratch := make([]int32, 0, spec.ReaderSites+spec.WriterSites)
	for k := 0; k < n; k++ {
		cfg.Sizes[k] = int64(rng.IntRange(1, 2*spec.SizeMean-1))
		totalSize += cfg.Sizes[k]
		cfg.Primaries[k] = int32(rng.Intn(m))

		readers := rng.IntRange(1, spec.ReaderSites)
		scratch = smp.draw(readers, rng, scratch)
		for _, site := range scratch {
			cfg.Reads.Site = append(cfg.Reads.Site, site)
			cfg.Reads.Cnt = append(cfg.Reads.Cnt, int64(rng.IntRange(spec.ReadMin, spec.ReadMax)))
		}
		cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))

		writers := 0
		if spec.WriterSites > 0 {
			writers = rng.IntRange(0, spec.WriterSites)
		}
		if writers > 0 {
			scratch = smp.draw(writers, rng, scratch)
			for _, site := range scratch {
				cfg.Writes.Site = append(cfg.Writes.Site, site)
				cfg.Writes.Cnt = append(cfg.Writes.Cnt, int64(rng.IntRange(spec.WriteMin, spec.WriteMax)))
			}
		}
		cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
	}

	base := spec.CapacityRatio * float64(totalSize)
	for i := range cfg.Capacities {
		cfg.Capacities[i] = int64(rng.FloatRange(base/2, 3*base/2) + 0.5)
	}
	// Grow capacities where the draw fell short of the primaries a site must
	// host, as the dense generator does.
	need := make([]int64, m)
	for k, sp := range cfg.Primaries {
		need[sp] += cfg.Sizes[k]
	}
	for i := range cfg.Capacities {
		if cfg.Capacities[i] < need[i] {
			cfg.Capacities[i] = need[i]
		}
	}

	return NewModel(cfg)
}

// PerturbWorkload re-draws the access patterns of a deterministic random
// fraction of mo's objects (Section 6.3's pattern shift, sparse form) and
// returns the shifted model plus the ascending changed-object list —
// AGRA-style adaptation input. Sizes, primaries, capacities and the
// topology are shared with mo; only the CSR arrays are rebuilt.
func PerturbWorkload(mo *Model, spec WorkloadSpec, frac float64, seed uint64) (*Model, []int, error) {
	if frac < 0 || frac > 1 {
		return nil, nil, fmt.Errorf("sparse: perturbation fraction %v outside [0,1]", frac)
	}
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	m, n := mo.Sites(), mo.Objects()
	if spec.Sites != m || spec.Objects != n {
		return nil, nil, fmt.Errorf("sparse: spec is %d×%d, model is %d×%d", spec.Sites, spec.Objects, m, n)
	}
	rng := xrand.New(seed)
	reads := core.CSR{Off: make([]int32, n+1)}
	writes := core.CSR{Off: make([]int32, n+1)}

	var changed []int
	smp := newSampler(m)
	scratch := make([]int32, 0, spec.ReaderSites+spec.WriterSites)
	for k := 0; k < n; k++ {
		if rng.Float64() < frac {
			changed = append(changed, k)
			readers := rng.IntRange(1, spec.ReaderSites)
			scratch = smp.draw(readers, rng, scratch)
			for _, site := range scratch {
				reads.Site = append(reads.Site, site)
				reads.Cnt = append(reads.Cnt, int64(rng.IntRange(spec.ReadMin, spec.ReadMax)))
			}
			writers := 0
			if spec.WriterSites > 0 {
				writers = rng.IntRange(0, spec.WriterSites)
			}
			if writers > 0 {
				scratch = smp.draw(writers, rng, scratch)
				for _, site := range scratch {
					writes.Site = append(writes.Site, site)
					writes.Cnt = append(writes.Cnt, int64(rng.IntRange(spec.WriteMin, spec.WriteMax)))
				}
			}
		} else {
			rs, rc := mo.ReadEntries(k)
			reads.Site = append(reads.Site, rs...)
			reads.Cnt = append(reads.Cnt, rc...)
			ws, wc := mo.WriteEntries(k)
			writes.Site = append(writes.Site, ws...)
			writes.Cnt = append(writes.Cnt, wc...)
		}
		reads.Off[k+1] = int32(len(reads.Site))
		writes.Off[k+1] = int32(len(writes.Site))
	}
	shifted, err := mo.WithAccess(reads, writes)
	if err != nil {
		return nil, nil, err
	}
	return newModel(shifted), changed, nil
}
