// Package verify is the correctness backbone of the repository: a reusable
// verification harness that hammers the cost model, the evaluators and the
// solvers with randomly generated instances and checks them against each
// other and against metamorphic properties that must hold by construction.
//
// Three ingredients compose the harness:
//
//   - a registry of named Checks — metamorphic properties of eq. 4
//     (permutation equivariance, cost/traffic linearity, zero-traffic
//     insertion) and differential tests (production evaluator vs a literal
//     eq. 4 transcription, delta vs full evaluation, serial vs pooled
//     evaluation, heuristics vs the exhaustive optimum on small instances);
//   - a soak runner (Soak) that generates fresh instances from a seed
//     stream and runs the selected checks until an iteration count, a
//     wall-clock deadline or a failure — built on the drp/internal/solver
//     anytime runtime so cmd/drpverify gets deadlines, budgets and progress
//     for free; and
//   - a deterministic instance shrinker (Shrink) that delta-debugs any
//     failing instance down to a minimal reproducer over sites and objects
//     while preserving primary placement and capacity feasibility.
//
// Every future performance PR — sharding, caching, SIMD-style evaluation —
// is expected to keep this package green; a seeded `drpverify` soak is the
// cheapest way to gain confidence in an optimisation of the cost model.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"drp/internal/core"
	"drp/internal/parallel"
	"drp/internal/solver"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// Ctx is the per-run context handed to a Check: the instance under test, a
// deterministic RNG derived from the instance seed, and the production cost
// function (overridable in tests to prove the harness catches a broken
// evaluator).
type Ctx struct {
	// P is the instance under test.
	P *core.Problem
	// Seed identifies the check run; rebuilding a Ctx from the same seed
	// replays the check bit-identically (the shrinker depends on this).
	Seed uint64
	// RNG is the check's private randomness stream, seeded from Seed.
	RNG  *xrand.Source
	cost func(*core.Scheme) int64
}

// NewCtx builds a check context for p. costFn overrides the production
// evaluator; nil means Scheme.Cost. It is exported for tests and for the
// shrinker's replay predicate.
func NewCtx(p *core.Problem, seed uint64, costFn func(*core.Scheme) int64) *Ctx {
	if costFn == nil {
		costFn = func(s *core.Scheme) int64 { return s.Cost() }
	}
	return &Ctx{P: p, Seed: seed, RNG: xrand.New(seed), cost: costFn}
}

// Cost evaluates a scheme with the production evaluator (or the test
// override). Checks that exercise "the evaluator" route through this so a
// deliberately broken evaluator is observable end to end.
func (cx *Ctx) Cost(s *core.Scheme) int64 { return cx.cost(s) }

// Check is one named verification property.
type Check struct {
	// Name is the stable identifier used by -checks and in reports.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Small marks checks that need exhaustively searchable instances
	// (differential tests against baseline.Optimal); the runner feeds them
	// tiny problems.
	Small bool
	// Run executes the property against cx.P and returns a descriptive
	// error on violation. It must be deterministic given cx.Seed.
	Run func(cx *Ctx) error
}

// Checks returns the full registry in deterministic order.
func Checks() []Check {
	return []Check{
		{Name: "eq4-oracle", Doc: "production evaluator vs literal eq.4 transcription on random schemes", Run: checkEq4Oracle},
		{Name: "perm-sites", Doc: "cost is equivariant under site relabelling", Run: checkSitePermutation},
		{Name: "perm-objects", Doc: "cost is equivariant under object relabelling", Run: checkObjectPermutation},
		{Name: "scale-cost", Doc: "scaling all link costs by α scales D by α", Run: checkScaleCost},
		{Name: "traffic-linear", Doc: "D is linear in the read and write patterns", Run: checkTrafficLinearity},
		{Name: "zero-object", Doc: "inserting a zero-traffic object leaves D unchanged", Run: checkZeroObject},
		{Name: "delta-eval", Doc: "delta evaluator matches full re-evaluation along random mutation walks", Run: checkDeltaEval},
		{Name: "pool-parity", Doc: "pooled evaluation is bit-identical to serial at several worker counts", Run: checkPoolParity},
		{Name: "solver-sanity", Doc: "SRA/GRA/AGRA schemes validate, beat no-replication, and are seed-deterministic", Run: checkSolverSanity},
		{Name: "optimal-gap", Doc: "heuristic costs are never below the exhaustive optimum", Small: true, Run: checkOptimalGap},
		{Name: "optimal-capacity", Doc: "relaxing capacities never worsens the exhaustive optimum", Small: true, Run: checkOptimalCapacity},
		{Name: "sparse-eval", Doc: "sparse evaluator (serial and pooled) matches the literal eq. 4 oracle", Run: checkSparseEval},
		{Name: "sparse-delta", Doc: "delta evaluator over an assignment matches re-evaluation and eq. 4 along random walks", Run: checkSparseDelta},
		{Name: "sparse-shards", Doc: "sharded sparse solve is bit-identical at shard counts 1/2/8", Run: checkSparseShards},
		{Name: "sparse-prune", Doc: "candidate pruning keeps every site the exhaustive optimum uses", Small: true, Run: checkSparsePrune},
		{Name: "sparse-prune-perm", Doc: "candidate pruning is equivariant under site relabelling", Run: checkSparsePrunePerm},
	}
}

// CheckNames returns the registry's names in order.
func CheckNames() []string {
	cs := Checks()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// selectChecks resolves a user-supplied subset; empty means all.
func selectChecks(names []string) ([]Check, error) {
	all := Checks()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	out := make([]Check, 0, len(names))
	seen := make(map[string]bool)
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("verify: unknown check %q (have: %s)", n, strings.Join(CheckNames(), " "))
		}
		seen[n] = true
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("verify: no checks selected")
	}
	return out, nil
}

// Options configures a soak run.
type Options struct {
	// Seed drives the instance stream; identical seeds replay identical
	// soaks (at any parallelism).
	Seed uint64
	// Iterations caps the number of generated instances; 0 means unbounded
	// (stop on the Run controls, typically a -duration deadline).
	Iterations int
	// Checks selects a subset of the registry by name; empty means all.
	Checks []string
	// Parallelism is the number of instances verified concurrently
	// (0 = GOMAXPROCS, 1 = serial). The instance stream and every check are
	// seed-deterministic, so the set of instances verified is identical at
	// any setting; only completion order varies, and failures are reported
	// for the lowest failing iteration so reports are deterministic too.
	Parallelism int
	// MaxSites/MaxObjects bound the general (non-Small) instances.
	// Zero selects the defaults (12 sites, 10 objects).
	MaxSites, MaxObjects int
	// Cost overrides the production evaluator — a test-only hook proving
	// the harness catches a broken evaluator. nil uses Scheme.Cost.
	Cost func(*core.Scheme) int64
	// Run carries the anytime controls (wall-clock deadline via Timeout,
	// check budget via Budget, progress observer). The soak stops at the
	// next instance boundary once a control trips.
	Run solver.Run
	// Log, when set, receives human-readable progress lines.
	Log func(format string, args ...interface{})
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Failure describes one check violation, after shrinking.
type Failure struct {
	// Check is the violated property.
	Check string
	// Iteration and Seed identify the failing instance in the soak stream.
	Iteration int
	Seed      uint64
	// Err is the original violation.
	Err error
	// Problem is the shrunken reproducer and ShrunkErr the violation it
	// still exhibits.
	Problem   *core.Problem
	ShrunkErr error
	// FromSites/FromObjects record the instance size before shrinking.
	FromSites, FromObjects int
}

func (f *Failure) Error() string {
	if f.Problem == nil {
		return fmt.Sprintf("verify: check %q failed on instance seed %d: %v", f.Check, f.Seed, f.Err)
	}
	return fmt.Sprintf("verify: check %q failed on instance seed %d (%d sites × %d objects, shrunk to %d × %d): %v",
		f.Check, f.Seed, f.FromSites, f.FromObjects, f.Problem.Sites(), f.Problem.Objects(), f.Err)
}

// Report summarises a soak run.
type Report struct {
	// Instances is the number of generated instances fully verified.
	Instances int
	// Runs counts executed check runs per check name.
	Runs map[string]int
	// Failure is the first (lowest-iteration) violation, or nil.
	Failure *Failure
	// Stats is the solver-runtime accounting: Evaluations counts check
	// runs, Iterations instances, Stopped why the soak ended.
	Stats solver.Stats
}

// Passed reports whether the soak found no violation.
func (r *Report) Passed() bool { return r.Failure == nil }

// defaults for the general instance generator.
const (
	defaultMaxSites   = 12
	defaultMaxObjects = 10
)

// instSeed derives the instance seed for soak iteration it — a splitmix64
// step so neighbouring iterations decorrelate.
func instSeed(base uint64, it int) uint64 {
	z := base + uint64(it+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkSeed derives the per-check context seed from the instance seed.
func checkSeed(inst uint64, checkIdx int) uint64 {
	return instSeed(inst^0xd1b54a32d192ed03, checkIdx)
}

// genGeneral generates the iteration's general instance.
func genGeneral(seed uint64, maxM, maxN int) (*core.Problem, error) {
	rng := xrand.New(seed)
	m := 3 + rng.Intn(maxM-2)
	n := 2 + rng.Intn(maxN-1)
	us := []float64{0, 0.02, 0.05, 0.10, 0.25}
	cs := []float64{0.08, 0.15, 0.25, 0.40}
	spec := workload.NewSpec(m, n, us[rng.Intn(len(us))], cs[rng.Intn(len(cs))])
	return workload.Generate(spec, rng.Uint64())
}

// genSmall generates the iteration's exhaustively searchable instance:
// at most (4−1)·3 = 9 free bits, i.e. ≤ 512 leaves per optimal search.
func genSmall(seed uint64) (*core.Problem, error) {
	rng := xrand.New(seed ^ 0xa0761d6478bd642f)
	m := 2 + rng.Intn(3)
	n := 1 + rng.Intn(3)
	us := []float64{0, 0.05, 0.25}
	spec := workload.NewSpec(m, n, us[rng.Intn(len(us))], 0.30)
	return workload.Generate(spec, rng.Uint64())
}

// smallFreeBitLimit gates the exhaustive searches inside Small checks.
const smallFreeBitLimit = 12

// instanceResult is one iteration's outcome.
type instanceResult struct {
	it    int
	check string
	seed  uint64
	p     *core.Problem
	err   error
	// ran is the number of checks executed (the failing one included).
	ran int
}

// Soak runs the selected checks against a stream of generated instances
// until the iteration cap, the anytime controls or a failure stops it. The
// first failing instance (by iteration order) is shrunk to a minimal
// reproducer.
func Soak(opts Options) (*Report, error) {
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	if opts.MaxSites == 0 {
		opts.MaxSites = defaultMaxSites
	}
	if opts.MaxObjects == 0 {
		opts.MaxObjects = defaultMaxObjects
	}
	if opts.MaxSites < 4 || opts.MaxObjects < 3 {
		return nil, fmt.Errorf("verify: instance caps %d sites × %d objects too small (need ≥ 4 × 3)", opts.MaxSites, opts.MaxObjects)
	}

	c := solver.Start("verify", opts.Run)
	report := &Report{Runs: make(map[string]int)}
	workers := parallel.Workers(opts.Parallelism)
	stop := solver.StopCompleted

	// runInstance verifies one soak iteration and returns its outcome.
	runInstance := func(it int) instanceResult {
		seed := instSeed(opts.Seed, it)
		res := instanceResult{it: it, seed: seed}
		var general, small *core.Problem
		for idx, ch := range checks {
			var p *core.Problem
			var gerr error
			if ch.Small {
				if small == nil {
					small, gerr = genSmall(seed)
				}
				p = small
			} else {
				if general == nil {
					general, gerr = genGeneral(seed, opts.MaxSites, opts.MaxObjects)
				}
				p = general
			}
			if gerr != nil {
				// Generation failure is a harness bug, not a property
				// violation; surface it as one.
				res.check, res.err = ch.Name, fmt.Errorf("instance generation: %w", gerr)
				return res
			}
			res.ran++
			if err := ch.Run(NewCtx(p, checkSeed(seed, idx), opts.Cost)); err != nil {
				res.check, res.p, res.err = ch.Name, p, err
				return res
			}
		}
		return res
	}

	var failure *instanceResult
	for it := 0; failure == nil; {
		if reason, halt := c.Check(); halt {
			stop = reason
			break
		}
		batch := workers
		if opts.Iterations > 0 {
			if remaining := opts.Iterations - it; remaining <= 0 {
				break
			} else if remaining < batch {
				batch = remaining
			}
		}
		// Iterations within a batch verify concurrently; every instance and
		// check is a pure function of its seed, so the work is identical at
		// any worker count.
		results := make([]instanceResult, batch)
		parallel.ForWorker(batch, workers, func(_, i int) {
			results[i] = runInstance(it + i)
		})
		// Collect in iteration order so the reported failure is always the
		// lowest failing iteration regardless of completion order.
		for i := range results {
			r := &results[i]
			report.Instances++
			c.Charge(r.ran)
			for _, ch := range checks[:r.ran] {
				report.Runs[ch.Name]++
			}
			if r.err != nil {
				failure = r
				break
			}
		}
		it += batch
		c.Observe(it, 0, 0, 0)
	}

	if failure != nil {
		report.Failure = shrinkFailure(checks, failure, opts)
	}
	report.Stats = c.Finish(report.Instances, stop)
	return report, nil
}

// shrinkFailure delta-debugs the failing instance down to a minimal
// reproducer by replaying the violated check with its original seed.
func shrinkFailure(checks []Check, f *instanceResult, opts Options) *Failure {
	out := &Failure{
		Check:     f.check,
		Iteration: f.it,
		Seed:      f.seed,
		Err:       f.err,
	}
	if f.p == nil {
		// Generation failed; nothing to shrink.
		out.Problem = nil
		return out
	}
	out.FromSites, out.FromObjects = f.p.Sites(), f.p.Objects()
	var check Check
	idx := 0
	for i, ch := range checks {
		if ch.Name == f.check {
			check, idx = ch, i
			break
		}
	}
	seed := checkSeed(f.seed, idx)
	var lastErr error
	pred := func(q *core.Problem) bool {
		err := check.Run(NewCtx(q, seed, opts.Cost))
		if err != nil {
			lastErr = err
		}
		return err != nil
	}
	opts.logf("shrinking %d×%d reproducer for %q…", f.p.Sites(), f.p.Objects(), f.check)
	out.Problem = Shrink(f.p, pred)
	out.ShrunkErr = lastErr
	if out.ShrunkErr == nil {
		out.ShrunkErr = f.err
	}
	opts.logf("shrunk to %d×%d", out.Problem.Sites(), out.Problem.Objects())
	return out
}

// SortedRunCounts renders a report's per-check counters deterministically.
func (r *Report) SortedRunCounts() []string {
	names := make([]string, 0, len(r.Runs))
	for n := range r.Runs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%d", n, r.Runs[n])
	}
	return out
}
