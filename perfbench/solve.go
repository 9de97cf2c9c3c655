package main

import (
	"fmt"
	"runtime"
	"time"

	"drp"
	"drp/internal/core"
	"drp/internal/solver"
	"drp/internal/sparse"
)

// solveSpec is the solver half of a workload: a dense Section 6.1
// instance solved by GRA and then adapted through a chain of Section 6.3
// pattern shifts, and a sparse instance solved and adapted by the sharded
// core.
type solveSpec struct {
	Sites, Objects   int
	Update, Capacity float64
	Shift            drp.ChangeSpec
	AdaptRounds      int
	MiniGenerations  int

	SparseSites, SparseObjects int
	SparseCapacity             float64
	SparseAdapt                float64 // fraction of objects perturbed
}

// parallelism is the worker count handed to every solver: one per core of
// the benchmark host.
const parallelism = 2

// solveInputs are the generated instances of one solve stage.
type solveInputs struct {
	p       *core.Problem
	shifted []*core.Problem // one per adaptation round, each a shift of the one before
	changed [][]int
	spec    sparse.WorkloadSpec
	mo      *sparse.Model
	moShift *sparse.Model
	moMoved []int

	total, sparseGen time.Duration
}

// generateSolveInputs builds every instance the solve stage needs: the
// fixed dense instance, the seed's chain of pattern shifts over it, and the
// seed's sparse instance with its perturbation.
func generateSolveInputs(spec solveSpec, seed uint64) (*solveInputs, error) {
	start := time.Now()
	in := &solveInputs{}
	var err error
	in.p, err = drp.Generate(drp.NewSpec(spec.Sites, spec.Objects, spec.Update, spec.Capacity), instanceSeed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	prev := in.p
	for r := 0; r < spec.AdaptRounds; r++ {
		next, changes, err := drp.ApplyChange(prev, spec.Shift, derive(seed, uint64(20+r)))
		if err != nil {
			return nil, fmt.Errorf("pattern shift %d: %w", r, err)
		}
		objs := make([]int, len(changes))
		for i, c := range changes {
			objs[i] = c.Object
		}
		in.shifted = append(in.shifted, next)
		in.changed = append(in.changed, objs)
		prev = next
	}
	t := time.Now()
	in.spec = sparse.NewWorkloadSpec(spec.SparseSites, spec.SparseObjects)
	in.spec.CapacityRatio = spec.SparseCapacity
	if in.mo, err = sparse.GenerateWorkload(in.spec, derive(seed, 30)); err != nil {
		return nil, fmt.Errorf("sparse generate: %w", err)
	}
	in.sparseGen = time.Since(t)
	t = time.Now()
	settle()
	collect := time.Since(t)
	if in.moShift, in.moMoved, err = sparse.PerturbWorkload(in.mo, in.spec, spec.SparseAdapt, derive(seed, 31)); err != nil {
		return nil, fmt.Errorf("sparse perturb: %w", err)
	}
	in.total = time.Since(start) - collect
	return in, nil
}

// solveRuns is how many times the stage runs GRA, each time with its own
// seed, and the sparse solve; the reported times and GRA savings are
// medians over the runs.
const solveRuns = 3

// solveResult is one solve stage's measurements.
type solveResult struct {
	gra, graTotal            float64 // median and summed GRA seconds
	sparseSolve, sparseTotal float64 // median and summed sparse solve seconds
	adapt, adaptTotal        float64 // median and summed adaptation round seconds
	sparseAdapt              time.Duration
	savings, sparseSavings   float64
	graGens, graEvals        int
	adaptEvals, adaptObjects int
	sparseEvals              int
	scheme                   *core.Scheme // the GRA placement, for eval probes
	errs                     []string
	solves                   int
}

// checkScheme verifies a dense solver result against an independent
// evaluator.
func checkScheme(name string, p *core.Problem, s *core.Scheme, cost int64) []string {
	if err := s.Validate(); err != nil {
		return []string{fmt.Sprintf("%s: invalid scheme: %v", name, err)}
	}
	if got := core.NewEvaluator(p).Cost(s.Bits()); got != cost {
		return []string{fmt.Sprintf("%s: reported cost %d, recomputed %d", name, cost, got)}
	}
	return nil
}

// checkAssignment verifies a sparse solver result the same way.
func checkAssignment(name string, mo *sparse.Model, a *sparse.Assignment, cost int64) []string {
	if err := a.Validate(); err != nil {
		return []string{fmt.Sprintf("%s: invalid assignment: %v", name, err)}
	}
	if got := sparse.NewEvaluator(mo).Cost(a); got != cost {
		return []string{fmt.Sprintf("%s: reported cost %d, recomputed %d", name, cost, got)}
	}
	return nil
}

// runSolve runs GRA, the adaptation chain and the sparse solve and
// adaptation on the generated inputs, checking every result.
func runSolve(spec solveSpec, in *solveInputs, seed uint64) (*solveResult, error) {
	res := &solveResult{}

	params := drp.DefaultGRAParams()
	params.Parallelism = parallelism
	var times, savings []float64
	var first *drp.GRAResult
	for r := 0; r < solveRuns; r++ {
		params.Seed = derive(seed, uint64(40+r))
		settle()
		t := time.Now()
		g, err := drp.GRA(in.p, params)
		if err != nil {
			return nil, fmt.Errorf("gra: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		savings = append(savings, in.p.Savings(g.Cost))
		res.solves++
		res.graGens += g.Stats.Iterations
		res.graEvals += g.Stats.Evaluations
		res.errs = append(res.errs, checkScheme(fmt.Sprintf("gra run %d", r), in.p, g.Scheme, g.Cost)...)
		if first == nil {
			first = g
		}
	}
	res.gra, res.graTotal, res.savings = median(times), sum(times), median(savings)
	res.scheme = first.Scheme

	cur, pop := first.Scheme, first.Population
	var rounds []float64
	for r, p := range in.shifted {
		rebound, err := drp.RebindScheme(p, cur)
		if err != nil {
			return nil, fmt.Errorf("adapt round %d: %w", r, err)
		}
		ap := drp.DefaultAGRAParams()
		ap.Seed = derive(seed, uint64(50+r))
		ap.Parallelism = parallelism
		mini := params
		mini.Seed = ap.Seed
		settle()
		t := time.Now()
		a, err := drp.Adapt(drp.AdaptInput{Problem: p, Current: rebound, GRAPopulation: pop, Changed: in.changed[r]},
			ap, mini, spec.MiniGenerations)
		if err != nil {
			return nil, fmt.Errorf("adapt round %d: %w", r, err)
		}
		rounds = append(rounds, time.Since(t).Seconds())
		res.solves++
		res.adaptEvals += a.Stats.Evaluations
		res.adaptObjects += len(in.changed[r])
		res.errs = append(res.errs, checkScheme(fmt.Sprintf("adapt round %d", r), p, a.Scheme, a.Cost)...)
		cur, pop = a.Scheme, a.Population
	}
	res.adapt, res.adaptTotal = median(rounds), sum(rounds)

	sp := sparse.SolveParams{Shards: parallelism}
	var s *sparse.Result
	var sparseTimes []float64
	var err error
	for r := 0; r < solveRuns; r++ {
		settle()
		t := time.Now()
		s, err = sparse.Solve(in.mo, sp, solver.Run{})
		if err != nil {
			return nil, fmt.Errorf("sparse solve: %w", err)
		}
		sparseTimes = append(sparseTimes, time.Since(t).Seconds())
		res.solves++
		res.sparseEvals += s.Stats.Evaluations
		res.errs = append(res.errs, checkAssignment(fmt.Sprintf("sparse solve run %d", r), in.mo, s.Assignment, s.Cost)...)
	}
	res.sparseSolve, res.sparseTotal = median(sparseTimes), sum(sparseTimes)
	res.sparseSavings = in.mo.Savings(s.Cost)

	carried, err := carryAssignment(in.moShift, s.Assignment)
	if err != nil {
		return nil, err
	}
	settle()
	t := time.Now()
	sa, err := sparse.Adapt(in.moShift, carried, in.moMoved, sp, solver.Run{})
	if err != nil {
		return nil, fmt.Errorf("sparse adapt: %w", err)
	}
	res.sparseAdapt = time.Since(t)
	res.solves++
	res.errs = append(res.errs, checkAssignment("sparse adapt", in.moShift, sa.Assignment, sa.Cost)...)
	return res, nil
}

// settle collects garbage before a timed call, so neither its time nor
// the run's peak resident set depends on when the collector last ran.
func settle() { runtime.GC() }

// carryAssignment rebinds an assignment onto a perturbed model that shares
// sizes, capacities and primaries.
func carryAssignment(mo *sparse.Model, a *sparse.Assignment) (*sparse.Assignment, error) {
	out := sparse.NewAssignment(mo)
	for k := 0; k < mo.Objects(); k++ {
		for _, i := range a.Replicators(k) {
			if i == mo.Primary(k) {
				continue
			}
			if err := out.Add(int(i), k); err != nil {
				return nil, fmt.Errorf("carry object %d site %d: %w", k, i, err)
			}
		}
	}
	return out, nil
}
