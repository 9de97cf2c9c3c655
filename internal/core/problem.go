// Package core defines the Data Replication Problem (DRP) of Loukopoulos &
// Ahmad (ICDCS 2000): the problem instance (sites, objects, read/write
// patterns, primary copies, capacities, transfer costs), replication
// schemes, and the exact network-transfer-cost (NTC) model of Section 2 —
// the objective function D (eq. 4), the greedy benefit value B (eq. 5) and
// the adaptive replica-benefit estimator E (eq. 6).
//
// Everything else in this repository (the SRA greedy, the GRA and AGRA
// genetic algorithms, baselines, the cluster simulator and the experiment
// harness) is expressed in terms of this package.
package core

import (
	"fmt"

	"drp/internal/netsim"
)

// Problem is an immutable DRP instance in dense form: the shared
// object-major Instance (sizes, capacities, primaries, CSR access
// patterns, distances and derived totals) plus the site-major read/write
// matrices that SRA's benefit, AGRA's estimator and the codec index.
//
// Indices: sites are 0..M-1, objects are 0..N-1. reads[i*N+k] is r_k(i),
// the number of reads issued by site i for object k during the
// measurement period.
type Problem struct {
	*Instance
	reads      []int64   // site-major r_k(i)
	writes     []int64   // site-major w_k(i)
	propWeight []float64 // Σ_x C(i,x) / mean row sum, per site (eq. 6 denominator)
}

// Config carries the raw inputs of a DRP instance into NewProblem.
type Config struct {
	Sizes      []int64            // o_k for each of the N objects (positive)
	Capacities []int64            // s(i) for each of the M sites (non-negative)
	Primaries  []int              // SP_k for each object
	Reads      [][]int64          // Reads[i][k] = r_k(i)
	Writes     [][]int64          // Writes[i][k] = w_k(i)
	Dist       *netsim.DistMatrix // validated all-pairs costs C(i,j)
}

// NewProblem validates cfg and builds an instance with all derived caches.
// Beyond the dense matrix shapes and non-negative counts checked here,
// every gate is NewInstance's.
func NewProblem(cfg Config) (*Problem, error) {
	if cfg.Dist == nil {
		return nil, fmt.Errorf("core: nil distance matrix")
	}
	m := cfg.Dist.Sites()
	n := len(cfg.Sizes)
	if len(cfg.Reads) != m || len(cfg.Writes) != m {
		return nil, fmt.Errorf("core: read/write matrices must have %d site rows", m)
	}
	for i := 0; i < m; i++ {
		if len(cfg.Reads[i]) != n || len(cfg.Writes[i]) != n {
			return nil, fmt.Errorf("core: site %d read/write rows must have %d objects", i, n)
		}
	}
	p := &Problem{reads: make([]int64, m*n), writes: make([]int64, m*n)}
	var nnzR, nnzW int
	for i := 0; i < m; i++ {
		for k := 0; k < n; k++ {
			r, w := cfg.Reads[i][k], cfg.Writes[i][k]
			if r < 0 || w < 0 {
				return nil, fmt.Errorf("core: negative read/write count at site %d object %d", i, k)
			}
			p.reads[i*n+k] = r
			p.writes[i*n+k] = w
			if r > 0 {
				nnzR++
			}
			if w > 0 {
				nnzW++
			}
		}
	}
	primaries := make([]int32, len(cfg.Primaries))
	for k, sp := range cfg.Primaries {
		if sp < 0 || sp >= m {
			return nil, fmt.Errorf("core: object %d has out-of-range primary %d", k, sp)
		}
		primaries[k] = int32(sp)
	}
	in, err := NewInstance(InstanceConfig{
		Sizes:      append([]int64(nil), cfg.Sizes...),
		Capacities: append([]int64(nil), cfg.Capacities...),
		Primaries:  primaries,
		Reads:      compress(p.reads, m, n, nnzR),
		Writes:     compress(p.writes, m, n, nnzW),
		Dist:       cfg.Dist,
	})
	if err != nil {
		return nil, err
	}
	p.Instance = in
	mean := in.dist.MeanRowSum()
	p.propWeight = make([]float64, m)
	for i := 0; i < m; i++ {
		if mean > 0 {
			p.propWeight[i] = float64(in.dist.RowSum(i)) / mean
		} else {
			// Degenerate single-site network: neutral weight.
			p.propWeight[i] = 1
		}
	}
	return p, nil
}

// compress transposes a site-major M×N count matrix into object-major CSR,
// dropping zero entries; nnz is the number of non-zero entries.
func compress(flat []int64, m, n, nnz int) CSR {
	c := CSR{Off: make([]int32, n+1), Site: make([]int32, 0, nnz), Cnt: make([]int64, 0, nnz)}
	for k := 0; k < n; k++ {
		for i := 0; i < m; i++ {
			if v := flat[i*n+k]; v > 0 {
				c.Site = append(c.Site, int32(i))
				c.Cnt = append(c.Cnt, v)
			}
		}
		c.Off[k+1] = int32(len(c.Site))
	}
	return c
}

// Primary returns SP_k.
func (p *Problem) Primary(k int) int { return int(p.primary[k]) }

// Reads returns r_k(i).
func (p *Problem) Reads(i, k int) int64 { return p.reads[i*p.n+k] }

// Writes returns w_k(i).
func (p *Problem) Writes(i, k int) int64 { return p.writes[i*p.n+k] }

// WithPatterns returns a copy of p sharing the network, sizes, capacities
// and primaries but carrying new read/write patterns. It is how the
// adaptive experiments (Section 6.3) model "the daytime pattern changed":
// same infrastructure, new demand.
func (p *Problem) WithPatterns(reads, writes [][]int64) (*Problem, error) {
	return NewProblem(Config{
		Sizes:      p.size,
		Capacities: p.cap,
		Primaries:  p.primaries(),
		Reads:      reads,
		Writes:     writes,
		Dist:       p.dist,
	})
}

// primaries returns SP_k for every object as a fresh []int.
func (p *Problem) primaries() []int {
	out := make([]int, p.n)
	for k, sp := range p.primary {
		out[k] = int(sp)
	}
	return out
}

// ReadMatrix returns a fresh [][]int64 copy of the read pattern, for use
// with WithPatterns-style mutation.
func (p *Problem) ReadMatrix() [][]int64 { return p.matrixCopy(p.reads) }

// WriteMatrix returns a fresh [][]int64 copy of the write pattern.
func (p *Problem) WriteMatrix() [][]int64 { return p.matrixCopy(p.writes) }

func (p *Problem) matrixCopy(flat []int64) [][]int64 {
	out := make([][]int64, p.m)
	for i := 0; i < p.m; i++ {
		out[i] = append([]int64(nil), flat[i*p.n:(i+1)*p.n]...)
	}
	return out
}
