package core_test

// Tests of the one eq. 4 kernel every evaluator shares: the constructor
// gate it relies on, its allocation budget, and a fuzz target holding it to
// a literal transcription of V_k.

import (
	"strings"
	"testing"

	"drp/internal/core"
	"drp/internal/netsim"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// TestNewProblemRejectsZeroDistance pins the distance-matrix gate. Site 1
// sits at distance 0 from site 0, so with a replica at site 0 the reader at
// site 1 is a non-replicator whose nearest replica is 0 away. Literal eq. 4
// prices that placement at 5; a kernel that equates "nearest replica at
// distance 0" with "is a replicator" charged site 1 the update fan-in
// instead and reported 10. Such matrices are rejected up front.
func TestNewProblemRejectsZeroDistance(t *testing.T) {
	dm := netsim.NewDistMatrix(3)
	dm.Set(0, 2, 5)
	dm.Set(1, 2, 5)
	_, err := core.NewProblem(core.Config{
		Sizes:      []int64{1},
		Capacities: []int64{1, 1, 1},
		Primaries:  []int{2},
		Reads:      [][]int64{{4}, {7}, {0}},
		Writes:     [][]int64{{1}, {0}, {0}},
		Dist:       dm,
	})
	if err == nil {
		t.Fatal("NewProblem accepted a matrix with a zero off-diagonal cost")
	}
	if !strings.Contains(err.Error(), "non-positive cost") {
		t.Fatalf("error %q does not name the zero cost", err)
	}
}

// TestEvaluationAllocs pins the evaluators' steady state: after warm-up a
// full evaluation, a per-object evaluation and a delta prediction allocate
// nothing, and Scheme.ObjectCost allocates at most its replica buffer.
func TestEvaluationAllocs(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(12, 40, 0.05, 0.3), 5)
	if err != nil {
		t.Fatal(err)
	}
	s := randomScheme(p, xrand.New(3))
	bits := s.Bits()
	ev := core.NewEvaluator(p)
	repl := s.AppendReplicators(nil, 0)
	d := core.NewDeltaEvaluator(s)
	addI, addK := -1, -1
	for i := 0; i < p.Sites() && addI < 0; i++ {
		for k := 0; k < p.Objects(); k++ {
			if _, ok := d.AddDelta(i, k); ok {
				addI, addK = i, k
				break
			}
		}
	}
	if addI < 0 {
		t.Fatal("no admissible replica addition to measure")
	}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Evaluator.Cost", 0, func() { ev.Cost(bits) }},
		{"Evaluator.ObjectCost", 0, func() { ev.ObjectCost(0, repl) }},
		{"DeltaEvaluator.AddDelta", 0, func() { d.AddDelta(addI, addK) }},
		{"Scheme.ObjectCost", 1, func() { s.ObjectCost(0) }},
	} {
		if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
			t.Errorf("%s: %.1f allocs per call, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
}

// literalObjectCost is V_k transcribed from eq. 4 for an arbitrary replica
// set: replicators pay the update fan-in, every other site reads from its
// nearest replica and ships its writes to the primary. An empty set is
// priced as the primaries-only placement, as the evaluators document.
func literalObjectCost(p *core.Problem, k int, has []bool) int64 {
	sp := p.Primary(k)
	empty := true
	for _, h := range has {
		empty = empty && !h
	}
	var v int64
	for i := 0; i < p.Sites(); i++ {
		isRepl := has[i] || (empty && i == sp)
		if isRepl {
			var wTot int64
			for x := 0; x < p.Sites(); x++ {
				wTot += p.Writes(x, k)
			}
			v += wTot * p.Size(k) * p.Cost(i, sp)
			continue
		}
		minC := int64(-1)
		for j := 0; j < p.Sites(); j++ {
			if has[j] || (empty && j == sp) {
				if c := p.Cost(i, j); minC < 0 || c < minC {
					minC = c
				}
			}
		}
		v += p.Reads(i, k)*p.Size(k)*minC + p.Writes(i, k)*p.Size(k)*p.Cost(i, sp)
	}
	return v
}

// FuzzObjectCost holds the kernel to literal eq. 4 on small random
// instances and arbitrary replica sets — empty, primary-less and full ones
// included, selected by mask (bit i set = replica at site i).
func FuzzObjectCost(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint16(0))      // empty set
	f.Add(uint64(2), uint8(5), uint8(3), uint16(0b10))   // one non-primary site
	f.Add(uint64(3), uint8(6), uint8(1), uint16(0xffff)) // every site
	f.Add(uint64(4), uint8(8), uint8(4), uint16(0b1011_0110))
	f.Add(uint64(5), uint8(1), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, sites, objects uint8, mask uint16) {
		m, n := 1+int(sites)%8, 1+int(objects)%4
		rng := xrand.New(seed)
		dm := netsim.NewDistMatrix(m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				dm.Set(i, j, int64(rng.IntRange(1, 9)))
			}
		}
		cfg := core.Config{
			Sizes:      make([]int64, n),
			Capacities: make([]int64, m),
			Primaries:  make([]int, n),
			Reads:      make([][]int64, m),
			Writes:     make([][]int64, m),
			Dist:       dm,
		}
		for k := range cfg.Sizes {
			cfg.Sizes[k] = int64(rng.IntRange(1, 5))
			cfg.Primaries[k] = rng.Intn(m)
		}
		for i := 0; i < m; i++ {
			cfg.Capacities[i] = 100
			cfg.Reads[i] = make([]int64, n)
			cfg.Writes[i] = make([]int64, n)
			for k := 0; k < n; k++ {
				// Zero counts are common, so sparse rows get exercised.
				cfg.Reads[i][k] = int64(rng.IntRange(-4, 6))
				cfg.Writes[i][k] = int64(rng.IntRange(-6, 3))
				cfg.Reads[i][k] = max(cfg.Reads[i][k], 0)
				cfg.Writes[i][k] = max(cfg.Writes[i][k], 0)
			}
		}
		p, err := core.NewProblem(cfg)
		if err != nil {
			t.Fatalf("generated instance rejected: %v", err)
		}
		ev := core.NewEvaluator(p)
		has := make([]bool, m)
		for k := 0; k < n; k++ {
			var repl []int32
			for i := 0; i < m; i++ {
				// Rotate the mask per object so objects see different sets.
				has[i] = mask>>((i+k)%16)&1 == 1
				if has[i] {
					repl = append(repl, int32(i))
				}
			}
			if got, want := ev.ObjectCost(k, repl), literalObjectCost(p, k, has); got != want {
				t.Fatalf("object %d, replicas %v: kernel V=%d, literal eq.4 %d", k, repl, got, want)
			}
		}
	})
}
