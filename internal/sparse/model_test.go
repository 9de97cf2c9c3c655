package sparse

import (
	"math"
	"strings"
	"testing"

	"drp/internal/baseline"
	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/workload"
	"drp/internal/xrand"
)

func TestFromProblemEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p, err := workload.Generate(workload.NewSpec(10, 14, 0.05, 0.2), seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mo := FromProblem(p)
		if mo.Sites() != p.Sites() || mo.Objects() != p.Objects() {
			t.Fatalf("seed %d: dims %d×%d, want %d×%d", seed, mo.Sites(), mo.Objects(), p.Sites(), p.Objects())
		}
		if mo.DPrime() != p.DPrime() {
			t.Fatalf("seed %d: D′ %d, dense %d", seed, mo.DPrime(), p.DPrime())
		}
		for k := 0; k < p.Objects(); k++ {
			if mo.VPrime(k) != p.VPrime(k) {
				t.Fatalf("seed %d: V′_%d %d, dense %d", seed, k, mo.VPrime(k), p.VPrime(k))
			}
			if mo.TotalReads(k) != p.TotalReads(k) || mo.TotalWrites(k) != p.TotalWrites(k) {
				t.Fatalf("seed %d: object %d traffic totals diverge", seed, k)
			}
		}
		for i := 0; i < p.Sites(); i++ {
			if mo.Capacity(i) != p.Capacity(i) {
				t.Fatalf("seed %d: capacity %d diverges", seed, i)
			}
		}
	}
}

func TestModelRoundTrip(t *testing.T) {
	mo := testModel(t, 12, 40, 7)
	p := denseFromModel(t, mo)
	back := FromProblem(p)
	if back.DPrime() != mo.DPrime() {
		t.Fatalf("round-trip D′ %d, want %d", back.DPrime(), mo.DPrime())
	}
	r1, w1 := mo.AccessEntries()
	r2, w2 := back.AccessEntries()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("round-trip nnz (%d,%d), want (%d,%d)", r2, w2, r1, w1)
	}
}

// validConfig builds a minimal well-formed 2-site, 2-object config for the
// validation table to corrupt.
func validConfig() core.InstanceConfig {
	d := netsim.NewDistMatrix(2)
	d.Set(0, 1, 3)
	return core.InstanceConfig{
		Sizes:      []int64{5, 7},
		Capacities: []int64{20, 20},
		Primaries:  []int32{0, 1},
		Reads: core.CSR{
			Off:  []int32{0, 1, 2},
			Site: []int32{1, 0},
			Cnt:  []int64{4, 9},
		},
		Writes: core.CSR{
			Off:  []int32{0, 0, 1},
			Site: []int32{0},
			Cnt:  []int64{2},
		},
		Dist: d,
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(validConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(*core.InstanceConfig)
		want    string
	}{
		{"nil dist", func(c *core.InstanceConfig) { c.Dist = nil }, "nil distance"},
		{"no objects", func(c *core.InstanceConfig) {
			c.Sizes = nil
			c.Primaries = nil
			c.Reads = core.CSR{Off: []int32{0}}
			c.Writes = core.CSR{Off: []int32{0}}
		}, "no objects"},
		{"capacity count", func(c *core.InstanceConfig) { c.Capacities = c.Capacities[:1] }, "capacities"},
		{"primary count", func(c *core.InstanceConfig) { c.Primaries = c.Primaries[:1] }, "primaries"},
		{"non-positive size", func(c *core.InstanceConfig) { c.Sizes[0] = 0 }, "non-positive size"},
		{"negative capacity", func(c *core.InstanceConfig) { c.Capacities[1] = -1 }, "negative capacity"},
		{"primary range", func(c *core.InstanceConfig) { c.Primaries[0] = 5 }, "out-of-range primary"},
		{"primary fit", func(c *core.InstanceConfig) { c.Capacities[0] = 1 }, "infeasible"},
		{"offset length", func(c *core.InstanceConfig) { c.Reads.Off = c.Reads.Off[:2] }, "offsets have length"},
		{"offset start", func(c *core.InstanceConfig) { c.Reads.Off[0] = 1 }, "start at 0"},
		{"offset end", func(c *core.InstanceConfig) { c.Reads.Off[2] = 1 }, "entries exist"},
		{"offset decrease", func(c *core.InstanceConfig) { c.Reads.Off[1] = 2; c.Reads.Off[2] = 1 }, "entries exist"},
		{"ragged counts", func(c *core.InstanceConfig) { c.Writes.Cnt = c.Writes.Cnt[:0] }, "counts"},
		{"site range", func(c *core.InstanceConfig) { c.Reads.Site[0] = 9 }, "references site"},
		{"site order", func(c *core.InstanceConfig) {
			c.Reads.Off = []int32{0, 2, 2}
			c.Reads.Site = []int32{1, 1}
			c.Reads.Cnt = []int64{4, 9}
		}, "strictly ascending"},
		{"negative count", func(c *core.InstanceConfig) { c.Reads.Cnt[0] = -4 }, "negative count"},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.corrupt(&cfg)
		_, err := NewModel(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOverflowGateBoundary pins the worst-case-NTC gate at the exact int64
// boundary: the sparse and dense constructors accept and reject the same
// instances, and at the largest accepted magnitude the evaluator's sum is
// still exact.
func TestOverflowGateBoundary(t *testing.T) {
	build := func(readCount int64) (core.InstanceConfig, core.Config) {
		d := netsim.NewDistMatrix(2)
		d.Set(0, 1, 1)
		size := int64(1) << 31
		sc := core.InstanceConfig{
			Sizes:      []int64{size},
			Capacities: []int64{size, size},
			Primaries:  []int32{0},
			Reads:      core.CSR{Off: []int32{0, 1}, Site: []int32{1}, Cnt: []int64{readCount}},
			Writes:     core.CSR{Off: []int32{0, 0}},
			Dist:       d,
		}
		dc := core.Config{
			Sizes:      []int64{size},
			Capacities: []int64{size, size},
			Primaries:  []int{0},
			Reads:      [][]int64{{0}, {readCount}},
			Writes:     [][]int64{{0}, {0}},
			Dist:       d,
		}
		return sc, dc
	}
	// With M=2, W=0, maxC=1, o=2^31: the gate bound is (1+R)·2^31, which
	// fits int64 iff 1+R ≤ 2^32−1.
	fitsR := int64(1)<<32 - 2
	sc, dc := build(fitsR)
	mo, errS := NewModel(sc)
	_, errD := core.NewProblem(dc)
	if errS != nil || errD != nil {
		t.Fatalf("boundary instance rejected: sparse %v, dense %v", errS, errD)
	}
	wantV := fitsR * (int64(1) << 31) // R·o·C(1,0)
	if mo.DPrime() != wantV {
		t.Fatalf("boundary D′ = %d, want %d", mo.DPrime(), wantV)
	}
	if got := NewEvaluator(mo).Cost(NewAssignment(mo)); got != wantV {
		t.Fatalf("boundary cost = %d, want %d (wrapped?)", got, wantV)
	}
	if wantV <= 0 || wantV > math.MaxInt64-(int64(1)<<31) {
		t.Fatalf("boundary not near the int64 edge: %d", wantV)
	}

	sc, dc = build(fitsR + 1)
	_, errS = NewModel(sc)
	_, errD = core.NewProblem(dc)
	if errS == nil || errD == nil {
		t.Fatalf("over-boundary instance accepted: sparse %v, dense %v", errS, errD)
	}
	if !strings.Contains(errS.Error(), "overflows") {
		t.Fatalf("sparse rejection %q does not mention overflow", errS)
	}
}

// TestCandidatesContainOptimal is the pruning soundness property: on small
// instances the exhaustive dense optimum never replicates an object at a
// site the sparse model pruned.
func TestCandidatesContainOptimal(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := workload.Generate(workload.NewSpec(4, 4, 0.08, 0.25), seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mo := FromProblem(p)
		opt, err := baseline.Optimal(p, 16)
		if err != nil {
			t.Fatalf("seed %d: optimal: %v", seed, err)
		}
		for k := 0; k < p.Objects(); k++ {
			cand := mo.Candidates(k)
			for _, i := range opt.Replicators(k) {
				if _, found := core.SearchSites(cand, int32(i)); !found {
					t.Fatalf("seed %d: optimum replicates object %d at pruned site %d (candidates %v)", seed, k, i, cand)
				}
			}
		}
		// The bridge must therefore accept the optimum wholesale.
		if _, err := FromScheme(mo, opt); err != nil {
			t.Fatalf("seed %d: optimum rejected by FromScheme: %v", seed, err)
		}
	}
}

// TestCandidatePruningEquivariance relabels the sites and checks the
// candidate sets relabel with them, like the metamorphic eq. 4 checks.
func TestCandidatePruningEquivariance(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		mo := testModel(t, 9, 25, seed)
		m, n := mo.Sites(), mo.Objects()
		rng := xrand.New(seed * 77)
		perm := rng.Perm(m) // out site a ← in site perm[a]
		inv := make([]int32, m)
		for a, b := range perm {
			inv[b] = int32(a)
		}
		d := netsim.NewDistMatrix(m)
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				d.Set(a, b, mo.Dist().At(perm[a], perm[b]))
			}
		}
		cfg := core.InstanceConfig{
			Sizes:      make([]int64, n),
			Capacities: make([]int64, m),
			Primaries:  make([]int32, n),
			Dist:       d,
		}
		for a := 0; a < m; a++ {
			cfg.Capacities[a] = mo.Capacity(perm[a])
		}
		cfg.Reads.Off = make([]int32, n+1)
		cfg.Writes.Off = make([]int32, n+1)
		type entry struct {
			site int32
			cnt  int64
		}
		remap := func(sites []int32, cnts []int64) []entry {
			out := make([]entry, len(sites))
			for idx, s := range sites {
				out[idx] = entry{inv[s], cnts[idx]}
			}
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j-1].site > out[j].site; j-- {
					out[j-1], out[j] = out[j], out[j-1]
				}
			}
			return out
		}
		for k := 0; k < n; k++ {
			cfg.Sizes[k] = mo.Size(k)
			cfg.Primaries[k] = inv[mo.Primary(k)]
			rs, rc := mo.ReadEntries(k)
			for _, e := range remap(rs, rc) {
				cfg.Reads.Site = append(cfg.Reads.Site, e.site)
				cfg.Reads.Cnt = append(cfg.Reads.Cnt, e.cnt)
			}
			cfg.Reads.Off[k+1] = int32(len(cfg.Reads.Site))
			ws, wc := mo.WriteEntries(k)
			for _, e := range remap(ws, wc) {
				cfg.Writes.Site = append(cfg.Writes.Site, e.site)
				cfg.Writes.Cnt = append(cfg.Writes.Cnt, e.cnt)
			}
			cfg.Writes.Off[k+1] = int32(len(cfg.Writes.Site))
		}
		permuted, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("seed %d: permuted model: %v", seed, err)
		}
		for k := 0; k < n; k++ {
			orig := mo.Candidates(k)
			mapped := make([]int32, len(orig))
			for idx, s := range orig {
				mapped[idx] = inv[s]
			}
			for i := 1; i < len(mapped); i++ {
				for j := i; j > 0 && mapped[j-1] > mapped[j]; j-- {
					mapped[j-1], mapped[j] = mapped[j], mapped[j-1]
				}
			}
			got := permuted.Candidates(k)
			if len(got) != len(mapped) {
				t.Fatalf("seed %d: object %d candidates %v, want relabelled %v", seed, k, got, mapped)
			}
			for idx := range got {
				if got[idx] != mapped[idx] {
					t.Fatalf("seed %d: object %d candidates %v, want relabelled %v", seed, k, got, mapped)
				}
			}
		}
	}
}

// TestCapacityReachabilityPrune: a site whose primaries leave no room for
// an object is never that object's candidate.
func TestCapacityReachabilityPrune(t *testing.T) {
	d := netsim.NewDistMatrix(3)
	d.Set(0, 1, 5)
	d.Set(0, 2, 5)
	d.Set(1, 2, 5)
	cfg := core.InstanceConfig{
		Sizes:      []int64{10, 4},
		Capacities: []int64{10, 12, 20},
		Primaries:  []int32{0, 1},
		// Both objects heavily read everywhere, so traffic alone would keep
		// every site.
		Reads: core.CSR{
			Off:  []int32{0, 3, 6},
			Site: []int32{0, 1, 2, 0, 1, 2},
			Cnt:  []int64{50, 50, 50, 50, 50, 50},
		},
		Writes: core.CSR{Off: []int32{0, 0, 0}},
		Dist:   d,
	}
	mo, err := NewModel(cfg)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	// Object 0 (size 10) cannot reach site 0's free space beyond its own
	// primary load (10 of 10 used)… it IS the primary there. Site 1 has
	// capacity 12 with primary load 4: object 0 does not fit (4+10 > 12).
	if _, found := core.SearchSites(mo.Candidates(0), 1); found {
		t.Fatalf("object 0 candidates %v include unreachable site 1", mo.Candidates(0))
	}
	// Site 2 (capacity 20, no primaries) fits and the read traffic pays.
	if _, found := core.SearchSites(mo.Candidates(0), 2); !found {
		t.Fatalf("object 0 candidates %v miss reachable site 2", mo.Candidates(0))
	}
}
