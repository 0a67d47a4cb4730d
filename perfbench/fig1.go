package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/viz"
)

// The Figure 1 physics: the E5 configuration (ν=1, dt=0.01, steady
// source, zero velocity, Jacobi-preconditioned CG to 1e-8).
const (
	fig1DT  = 0.01
	fig1Nu  = 1.0
	fig1Tol = 1e-8
)

// fig1Source returns the seed's steady forcing: a Gaussian whose centre
// the seed places in the middle fifth of the unit square, so every seed
// asks the solver for about the same work.
func fig1Source(seed int64) func(x, y float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	cx, cy := 0.4+0.2*rng.Float64(), 0.4+0.2*rng.Float64()
	return func(x, y float64) float64 {
		dx, dy := x-cx, y-cy
		return 4 * math.Exp(-30*(dx*dx+dy*dy))
	}
}

// fig1Graph is one rank's Figure 1 component graph: mesh, flow, a stats
// monitor and the time integrator, wired through a framework cohort.
type fig1Graph struct {
	comm   *mpi.Comm
	cohort *framework.Cohort
	src    func(x, y float64) float64
	flow   *hydro.FlowComponent
	integ  *hydro.IntegratorComponent
	stats  *viz.StatsMonitor
}

func buildFig1(comm *mpi.Comm, m *mesh.Mesh, src func(x, y float64) float64) (*fig1Graph, error) {
	mc, err := hydro.NewMeshComponent(m, "rcb", comm.Size(), comm.Rank())
	if err != nil {
		return nil, err
	}
	g := &fig1Graph{
		comm:   comm,
		cohort: framework.NewCohort(comm, framework.Options{}),
		src:    src,
		integ:  hydro.NewIntegratorComponent(1, fig1DT),
	}
	if err := g.install("mesh", mc); err != nil {
		return nil, err
	}
	if err := g.install("integrator", g.integ); err != nil {
		return nil, err
	}
	return g, g.startFlow()
}

// startFlow installs a fresh flow component, at the initial condition, and
// a fresh stats monitor, and wires them into the graph.
func (g *fig1Graph) startFlow() error {
	fc, err := hydro.NewFlowComponent(g.comm, hydro.Config{Nu: fig1Nu, Tol: fig1Tol, Prec: "jacobi", Source: g.src})
	if err != nil {
		return err
	}
	g.flow, g.stats = fc, &viz.StatsMonitor{}
	if err := g.install("flow", fc); err != nil {
		return err
	}
	if err := g.install("stats", g.stats); err != nil {
		return err
	}
	return g.connect(
		[4]string{"flow", "mesh", "mesh", "mesh"},
		[4]string{"flow", "monitor", "stats", "monitor"},
		[4]string{"integrator", "flow", "flow", "flow"})
}

// restartFlow swaps fresh flow and stats components into the running
// graph, which restarts the simulation from its initial condition.
func (g *fig1Graph) restartFlow() error {
	for _, name := range []string{"flow", "stats"} {
		if err := g.cohort.RemoveParallel(name); err != nil {
			return fmt.Errorf("remove %s: %w", name, err)
		}
	}
	return g.startFlow()
}

// install adds a component to every rank of the cohort.
func (g *fig1Graph) install(name string, comp cca.Component) error {
	if err := g.cohort.InstallParallel(name, func(int) cca.Component { return comp }); err != nil {
		return fmt.Errorf("install %s: %w", name, err)
	}
	return nil
}

// connect wires (user, uses port, provider, provides port) quadruples.
func (g *fig1Graph) connect(conns ...[4]string) error {
	for _, c := range conns {
		if _, err := g.cohort.ConnectParallel(c[0], c[1], c[2], c[3]); err != nil {
			return fmt.Errorf("connect %v: %w", c, err)
		}
	}
	return nil
}

// step advances the simulation one timestep through the integrator, the
// path a builder's "go" button takes.
func (g *fig1Graph) step() (hydro.Stats, error) { return g.integ.Run(1, fig1DT) }

// runCohort runs body on p ranks in this process, over the goroutine
// backend ("go") or the process backend on shared-memory rings ("shm").
func runCohort(backend string, p int, dir string, body func(comm *mpi.Comm)) error {
	if backend == "go" {
		mpi.Run(p, body)
		return nil
	}
	rv, err := os.MkdirTemp(dir, "rv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rv)
	return mpi.RunOver(p, "shm://"+rv+"/rv", func(c *mpi.Comm, _ *mpi.Proc) { body(c) })
}

// must turns a rank's error into a panic, which the cohort runner re-raises
// on the caller once the other ranks are released.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fabricEpisode is how many timed steps fig1-fabric runs before it swaps
// in a fresh flow component, restarting the simulation from its initial
// condition. On a 16² grid the field nears steady state within a few
// hundred steps, and the CG iterations per step fall from 3 to 0;
// restarting keeps every timed step at the same work, 3 iterations,
// whatever the seed and the run length.
const fabricEpisode = 32

// fig1Run is rank 0's view of one measured run of the Figure 1 graph.
type fig1Run struct {
	setups   samples         // start of assembly to end of the warm step
	steps    samples         // per-step wall time
	wall     int64           // time spent holding the relay's turn
	allocs   uint64          // bytes allocated while holding the turn
	episodes [][]hydro.Stats // monitor history of each episode, warm step first
}

// warm takes the untimed first step, which binds the mesh and assembles
// the operator.
func (g *fig1Graph) warm() {
	_, err := g.step()
	must(err)
}

// fig1Spec is one of the two cohorts a Figure 1 workload measures.
type fig1Spec struct {
	backend string
	p, grid int
	setups  int     // assemblies timed; the last one is stepped
	episode int     // >0: swap in a fresh flow component after this many steps
	share   float64 // of each relay period this cohort steps for
}

// relayPeriod is one round of the relay: each cohort steps for its share
// of it, then hands the turn to the other.
const relayPeriod = 200 * time.Millisecond

// relay hands the timed loop back and forth between the two cohorts of a
// Figure 1 workload, so both sample the same stretch of host time while
// only one of them runs. Measured one after the other, the companion's
// median drifted with the host's speed by up to a quarter from run to run.
type relay struct {
	turn [2]chan struct{}
	end  int64 // written before the first turn is handed out
}

func newRelay() *relay {
	r := &relay{}
	for i := range r.turn {
		r.turn[i] = make(chan struct{}, 1)
	}
	return r
}

// begin starts the timed loop; cohort 0 has the first turn.
func (r *relay) begin(budget time.Duration) {
	r.end = now() + int64(budget)
	r.turn[0] <- struct{}{}
}

// acquire waits for cohort who's turn and reports whether time remains.
// A cohort that gets false must still release the turn, so the other one
// learns that time is up.
func (r *relay) acquire(who int) bool {
	<-r.turn[who]
	return now() < r.end
}

func (r *relay) release(who int) { r.turn[1-who] <- struct{}{} }

// measureFig1 assembles the primary graph primary.setups times and the
// companion aux.setups times, then steps the last assembly of each in
// alternating slices of the relay for budget, timing every step on rank
// 0. The companion is assembled after the primary's set-ups, so they are
// timed alone.
func measureFig1(cfg config, primary, aux fig1Spec, budget time.Duration, mem *memProbe) (pr, ar fig1Run, err error) {
	rl := newRelay()
	up := make(chan struct{}) // the primary is warm and waits for its turn, or has failed
	var once sync.Once
	signal := func() { once.Do(func() { close(up) }) }
	done := make(chan error, 1)
	go func() {
		err := primary.measure(cfg, &pr, rl, 0, signal, mem)
		done <- err
		signal()
	}()
	<-up
	select {
	case err := <-done:
		return pr, ar, err
	default:
	}
	if err := aux.measure(cfg, &ar, rl, 1, func() { rl.begin(budget) }, mem); err != nil {
		return pr, ar, err // the primary stays parked; the caller exits
	}
	return pr, ar, <-done
}

// measure assembles s.setups times, calls ready on rank 0 once the last
// assembly is warm, and then steps it as relay cohort who.
func (s fig1Spec) measure(cfg config, run *fig1Run, rl *relay, who int, ready func(), mem *memProbe) error {
	src := fig1Source(cfg.seed)
	slice := int64(s.share * float64(relayPeriod))
	for i := 0; i < s.setups; i++ {
		last := i == s.setups-1
		t0 := now()
		m := mesh.StructuredQuad(s.grid, s.grid)
		gt := newGate(s.p)
		err := runCohort(s.backend, s.p, cfg.workDir, func(comm *mpi.Comm) {
			rank := comm.Rank()
			g, err := buildFig1(comm, m, src)
			must(err)
			g.warm()
			must(comm.Barrier())
			if rank == 0 {
				run.setups = append(run.setups, now()-t0)
			}
			if !last {
				return
			}
			endEpisode := func() {
				if rank == 0 {
					run.episodes = append(run.episodes, g.stats.History())
				}
			}
			batch, restart := stepBatch, func() {}
			if s.episode > 0 {
				batch = s.episode
				restart = func() {
					endEpisode()
					must(g.restartFlow())
					g.warm()
				}
			}
			more := func() bool { return false } // only rank 0 decides
			if rank == 0 {
				ready()
				more = rl.turns(who, slice, run, mem)
			}
			steps := timedLoop(rank, gt, more, mem, batch, restart, func() { _, err := g.step(); must(err) })
			if rank == 0 {
				run.steps = steps
			}
			endEpisode()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// turns returns rank 0's decision, before each batch, whether to run it:
// true while cohort who's slice lasts; at the end of a slice it hands the
// turn over and waits for the next. It adds the time and the allocations
// of every slice to run.
func (r *relay) turns(who int, slice int64, run *fig1Run, mem *memProbe) func() bool {
	var held bool
	var t0 int64
	var a0 uint64
	return func() bool {
		if held && now()-t0 < slice {
			return true
		}
		if held {
			run.wall += now() - t0
			run.allocs += mem.allocated() - a0
			r.release(who)
		}
		if held = r.acquire(who); !held {
			r.release(who)
			return false
		}
		t0, a0 = now(), mem.allocated()
		return true
	}
}

// timedLoop runs op in gated batches on every rank while more, on rank
// 0, says so, calling between (untimed) before every batch but the first,
// and returns rank 0's per-op times.
func timedLoop(rank int, gt *gate, more func() bool, mem *memProbe, batch int, between, op func()) samples {
	var s samples
	for first := true; gt.next(rank, more()); first = false {
		if !first {
			between()
		}
		for i := 0; i < batch; i++ {
			t0 := now()
			op()
			if rank == 0 {
				t1 := now()
				s = append(s, t1-t0)
				mem.sample(t1)
			}
		}
	}
	return s
}

// compareEpisodes counts steps whose statistics differ from ref over the
// steps both ran, across every history in runs. rel is the allowed
// relative difference of each statistic (0 demands bit equality); the
// iteration counts must always match.
func compareEpisodes(runs [][]hydro.Stats, ref []hydro.Stats, rel float64) (compared, mismatched int) {
	for _, h := range runs {
		n := min(len(h), len(ref))
		for i := 0; i < n; i++ {
			x, y := h[i], ref[i]
			ok := x.Step == y.Step && x.SolveIters == y.SolveIters
			for _, pair := range [][2]float64{{x.Min, y.Min}, {x.Max, y.Max}, {x.Mean, y.Mean}, {x.Norm2, y.Norm2}} {
				ok = ok && closeTo(pair[0], pair[1], rel)
			}
			if !ok {
				mismatched++
			}
		}
		compared += n
	}
	return compared, mismatched
}

func closeTo(a, b, rel float64) bool {
	if rel == 0 {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// fig1Metrics fills the end-to-end metrics of a Figure 1 workload from
// its primary run and its companion run.
func fig1Metrics(res *result, primary, aux fig1Run, mem *memProbe) {
	n := len(primary.steps)
	res.metrics["setup_s"] = primary.setups.quantile(0.5) / 1e9
	res.metrics["op_ms_p50"] = primary.steps.p50ms()
	res.metrics["op_ms_p90"] = primary.steps.p90ms()
	res.metrics["aux_ms_p50"] = aux.steps.p50ms()
	res.metrics["alloc_kb_per_op"] = float64(primary.allocs) / float64(max(n, 1)) / 1024
	res.metrics["peak_heap_mb"] = mem.peakMB()
	res.note("setup_s", res.metrics["setup_s"], "s", len(primary.setups))
	res.note("step_ms_p50", res.metrics["op_ms_p50"], "ms", n)
	res.note("step_ms_p90", res.metrics["op_ms_p90"], "ms", n)
	res.note("steps_per_s", float64(n)/(float64(primary.wall)/1e9), "1/s", n)
	res.note("alloc_kb_per_op", res.metrics["alloc_kb_per_op"], "KiB", n)
	res.note("peak_heap_mb", res.metrics["peak_heap_mb"], "MiB", n)
	res.attempted = n + len(aux.steps)
}

// runFig1Compute measures the Figure 1 graph at p=2 on the goroutine
// backend, grid 128², against a p=1 run of the same problem. The p=1 rank
// keeps the process's GOMAXPROCS, so its kernels still share the worker
// pool: pinning it to one processor made its step time jump between two
// levels from run to run.
func runFig1Compute(cfg config) (*result, error) {
	const p, grid = 2, 128
	if cfg.trace {
		return runFig1Traced(cfg, "go", p, grid, 0)
	}
	mem := newMemProbe()
	primary, p1, err := measureFig1(cfg,
		fig1Spec{backend: "go", p: p, grid: grid, setups: cfg.setups, share: 0.7},
		fig1Spec{backend: "go", p: 1, grid: grid, setups: 1, share: 0.3},
		cfg.budget(1), mem)
	if err != nil {
		return nil, err
	}
	res := newResult()
	fig1Metrics(res, primary, p1, mem)
	eff := p1.steps.quantile(0.5) / (p * primary.steps.quantile(0.5))
	res.note("p1_step_ms_p50", res.metrics["aux_ms_p50"], "ms", len(p1.steps))
	res.note("parallel_eff", eff, "ratio", len(p1.steps))
	n, bad := compareEpisodes(primary.episodes, p1.episodes[0], 1e-10)
	res.check("p2-matches-p1", bad == 0 && n > 0,
		"%d of %d steps differ from the p=1 run by more than 1e-10 or in CG iterations", bad, n)
	res.failed = bad
	return res, nil
}

// runFig1Fabric measures the Figure 1 graph at p=2, grid 16², on the
// process backend over shared-memory rings, against the goroutine backend.
func runFig1Fabric(cfg config) (*result, error) {
	const p, grid = 2, 16
	if cfg.trace {
		return runFig1Traced(cfg, "shm", p, grid, fabricEpisode)
	}
	mem := newMemProbe()
	primary, ref, err := measureFig1(cfg,
		fig1Spec{backend: "shm", p: p, grid: grid, setups: cfg.setups, episode: fabricEpisode, share: 0.7},
		fig1Spec{backend: "go", p: p, grid: grid, setups: 1, episode: fabricEpisode, share: 0.3},
		cfg.budget(1), mem)
	if err != nil {
		return nil, err
	}
	res := newResult()
	fig1Metrics(res, primary, ref, mem)
	res.note("goroutine_step_ms_p50", res.metrics["aux_ms_p50"], "ms", len(ref.steps))
	n, bad := compareEpisodes(append(primary.episodes, ref.episodes[1:]...), ref.episodes[0], 0)
	res.check("shm-matches-goroutine", bad == 0 && n > 0,
		"%d of %d steps' stats are not bit-identical to the goroutine backend", bad, n)
	res.failed = bad
	return res, nil
}
