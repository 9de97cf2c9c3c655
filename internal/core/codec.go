package core

import (
	"encoding/json"
	"fmt"
	"io"

	"drp/internal/netsim"
)

// problemJSON is the on-disk representation of a Problem. The distance
// matrix is stored row by row so instances round-trip exactly regardless of
// the topology they came from.
type problemJSON struct {
	Sites      int       `json:"sites"`
	Objects    int       `json:"objects"`
	Sizes      []int64   `json:"sizes"`
	Capacities []int64   `json:"capacities"`
	Primaries  []int     `json:"primaries"`
	Reads      [][]int64 `json:"reads"`
	Writes     [][]int64 `json:"writes"`
	Dist       [][]int64 `json:"dist"`
}

// Encode serialises the problem as JSON.
func (p *Problem) Encode(w io.Writer) error {
	dist := make([][]int64, p.m)
	for i := range dist {
		dist[i] = append([]int64(nil), p.dist.Row(i)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(problemJSON{
		Sites:      p.m,
		Objects:    p.n,
		Sizes:      p.size,
		Capacities: p.cap,
		Primaries:  p.primaries(),
		Reads:      p.ReadMatrix(),
		Writes:     p.WriteMatrix(),
		Dist:       dist,
	})
}

// ReadProblem parses a JSON-encoded problem.
func ReadProblem(r io.Reader) (*Problem, error) {
	var pj problemJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decode problem: %w", err)
	}
	// Dimension guards come before any allocation or matrix indexing so
	// malformed input (fuzzers, truncated files) yields errors, not panics.
	if pj.Sites < 1 {
		return nil, fmt.Errorf("core: problem header declares %d sites", pj.Sites)
	}
	if pj.Objects != len(pj.Sizes) {
		return nil, fmt.Errorf("core: problem header declares %d objects, sizes list has %d", pj.Objects, len(pj.Sizes))
	}
	if len(pj.Dist) != pj.Sites {
		return nil, fmt.Errorf("core: distance matrix has %d rows, want %d", len(pj.Dist), pj.Sites)
	}
	// Every row length must be validated up front: filling the matrix below
	// indexes pj.Dist[j][i] for j > i, i.e. rows not yet visited.
	for i, row := range pj.Dist {
		if len(row) != pj.Sites {
			return nil, fmt.Errorf("core: distance row %d has %d entries, want %d", i, len(row), pj.Sites)
		}
	}
	dm := netsim.NewDistMatrix(pj.Sites)
	for i, row := range pj.Dist {
		for j, v := range row {
			if i == j {
				if v != 0 {
					return nil, fmt.Errorf("core: non-zero self-distance %d at site %d", v, i)
				}
				continue
			}
			if i < j {
				if v != pj.Dist[j][i] {
					return nil, fmt.Errorf("core: asymmetric distance at (%d,%d)", i, j)
				}
				dm.Set(i, j, v)
			}
		}
	}
	return NewProblem(Config{
		Sizes:      pj.Sizes,
		Capacities: pj.Capacities,
		Primaries:  pj.Primaries,
		Reads:      pj.Reads,
		Writes:     pj.Writes,
		Dist:       dm,
	})
}

// schemeJSON stores a replication scheme as per-object replicator lists.
type schemeJSON struct {
	Replicators [][]int `json:"replicators"`
}

// Encode serialises the scheme as JSON (per-object replicator lists).
func (s *Scheme) Encode(w io.Writer) error {
	repl := make([][]int, s.p.n)
	for k := range repl {
		repl[k] = s.Replicators(k)
	}
	return json.NewEncoder(w).Encode(schemeJSON{Replicators: repl})
}

// ReadScheme parses a JSON-encoded scheme against problem p.
func ReadScheme(p *Problem, r io.Reader) (*Scheme, error) {
	var sj schemeJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("core: decode scheme: %w", err)
	}
	if len(sj.Replicators) != p.n {
		return nil, fmt.Errorf("core: scheme has %d objects, want %d", len(sj.Replicators), p.n)
	}
	s := NewScheme(p)
	for k, sites := range sj.Replicators {
		for _, i := range sites {
			if i < 0 || i >= p.m {
				return nil, fmt.Errorf("core: object %d replicated at out-of-range site %d", k, i)
			}
			if i == p.Primary(k) {
				continue // already placed by NewScheme
			}
			if err := s.Add(i, k); err != nil {
				return nil, fmt.Errorf("core: object %d at site %d: %w", k, i, err)
			}
		}
	}
	return s, nil
}
