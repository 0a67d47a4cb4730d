package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/transport"
)

// The remote-solve system: 2-D Poisson on a 64² grid (4,096 unknowns),
// solved by unpreconditioned CG from x₀ = 0 to a relative residual of 1e-8.
const (
	solveGrid = 64
	solveTol  = 1e-8
)

// solveRHS returns the seed's right-hand side: uniform values in [0, 1),
// so every seed has the same spectral mix and about the same iterations.
func solveRHS(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	return b
}

// solveSystem is an ESI solver component connected to an operator: either
// directly, or through a proxy to an operator exported by another
// framework over TCP loopback.
type solveSystem struct {
	fw     *framework.Framework
	solver esi.EsiSolver
	remote *dist.RemotePort // nil for a direct connection
}

func (s *solveSystem) close() {
	if s.remote != nil {
		s.remote.Close()
	}
}

// solve runs one solve from x₀ = 0.
func (s *solveSystem) solve(b []float64) ([]float64, int, error) {
	x := make([]float64, len(b))
	iters, err := s.solver.Solve(b, &x)
	return x, int(iters), err
}

func newSolveFramework(opts framework.Options) (*solveSystem, error) {
	s := &solveSystem{fw: framework.New(opts)}
	solver := esi.NewSolverComponent("cg")
	solver.SetTolerance(solveTol)
	s.solver = solver
	return s, s.fw.Install("solver", solver)
}

// directSystem connects the solver straight to the operator component.
func directSystem(a *linalg.CSR) (*solveSystem, error) {
	s, err := newSolveFramework(framework.Options{TypeCheck: esi.TypeChecker()})
	if err != nil {
		return nil, err
	}
	if err := s.fw.Install("op", esi.NewOperatorComponent(a)); err != nil {
		return nil, err
	}
	_, err = s.fw.Connect("solver", "A", "op", "A")
	return s, err
}

// exportServer is the server framework exporting operator components.
type exportServer struct {
	fw  *framework.Framework
	exp *dist.Exporter
}

func newExportServer() (*exportServer, error) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fw := framework.New(framework.Options{})
	return &exportServer{fw: fw, exp: dist.NewExporter(fw, l)}, nil
}

// export installs comp under name and exports its "A" port.
func (e *exportServer) export(name string, comp cca.Component) (string, error) {
	if err := e.fw.Install(name, comp); err != nil {
		return "", err
	}
	return e.exp.Export(name, "A")
}

// remoteSystem connects the solver to the exported key through a
// supervised remote-operator proxy. through, when non-nil, is installed
// between the solver and the proxy.
func remoteSystem(srv *exportServer, key string, through *passThrough) (s *solveSystem, err error) {
	s, err = newSolveFramework(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	if err != nil {
		return nil, err
	}
	if s.remote, err = dist.InstallSupervisedRemoteOperator(s.fw, "remote", transport.TCP{}, srv.exp.Addr(), key, esi.TypeMatrixData, orb.SupervisorOptions{}); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if through == nil {
		_, err = s.fw.Connect("solver", "A", "remote", "A")
		return s, err
	}
	if err := s.fw.Install("through", through); err != nil {
		return nil, err
	}
	if _, err := s.fw.Connect("through", "inner", "remote", "A"); err != nil {
		return nil, err
	}
	if err := through.bind(); err != nil {
		return nil, err
	}
	_, err = s.fw.Connect("solver", "A", "through", "A")
	return s, err
}

// passThrough is the benchmark's operator component between the solver
// and the remote proxy: it times each remote Apply as the client sees it.
type passThrough struct {
	svc   cca.Services
	inner esi.EsiOperator
	ns    atomic.Int64
	calls atomic.Int64
}

func (p *passThrough) SetServices(svc cca.Services) error {
	p.svc = svc
	if err := svc.RegisterUsesPort(cca.PortInfo{Name: "inner", Type: esi.TypeMatrixData}); err != nil {
		return err
	}
	return svc.AddProvidesPort(p, cca.PortInfo{Name: "A", Type: esi.TypeOperator})
}

// bind fetches the proxy once; the pass-through holds it for its lifetime.
func (p *passThrough) bind() error {
	port, err := p.svc.GetPort("inner")
	if err != nil {
		return err
	}
	op, ok := port.(esi.EsiOperator)
	if !ok {
		return fmt.Errorf("inner port is %T", port)
	}
	p.inner = op
	return nil
}

func (p *passThrough) TypeName() string { return p.inner.TypeName() }
func (p *passThrough) Rows() int32      { return p.inner.Rows() }

func (p *passThrough) Apply(x []float64, y *[]float64) error {
	t := now()
	err := p.inner.Apply(x, y)
	p.ns.Add(now() - t)
	p.calls.Add(1)
	return err
}

// timedOperator is the exported operator component with each server-side
// Apply timed.
type timedOperator struct {
	*esi.OperatorComponent
	ns    atomic.Int64
	calls atomic.Int64
}

func (o *timedOperator) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(o, cca.PortInfo{Name: "A", Type: esi.TypeMatrixData})
}

func (o *timedOperator) Apply(x []float64, y *[]float64) error {
	t := now()
	err := o.OperatorComponent.Apply(x, y)
	o.ns.Add(now() - t)
	o.calls.Add(1)
	return err
}

// solveCheck compares a solve against the direct reference.
type solveCheck struct {
	x     []float64
	iters int
}

func (c solveCheck) ok(x []float64, iters int, err error, s *solveSystem) bool {
	if err != nil || iters != c.iters || len(x) != len(c.x) || s.solver.FinalResidual() > solveTol {
		return false
	}
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(c.x[i]) {
			return false
		}
	}
	return true
}

// remoteSetup assembles the server and the remote solve and runs the
// warm solve.
func remoteSetup(a *linalg.CSR, b []float64) (*exportServer, *solveSystem, error) {
	srv, err := newExportServer()
	if err != nil {
		return nil, nil, err
	}
	key, err := srv.export("op", esi.NewOperatorComponent(a))
	if err != nil {
		srv.exp.Close()
		return nil, nil, err
	}
	s, err := remoteSystem(srv, key, nil)
	if err == nil {
		if _, _, err = s.solve(b); err != nil {
			s.close()
		}
	}
	if err != nil {
		srv.exp.Close()
		return nil, nil, err
	}
	return srv, s, nil
}

// runRemoteSolve measures remote solves against direct local solves of
// the same system.
func runRemoteSolve(cfg config) (*result, error) {
	a := linalg.Poisson2D(solveGrid, solveGrid)
	b := solveRHS(cfg.seed, a.NRows)
	direct, err := directSystem(a)
	if err != nil {
		return nil, err
	}
	x, iters, err := direct.solve(b)
	if err != nil {
		return nil, fmt.Errorf("direct solve: %w", err)
	}
	ref := solveCheck{x, iters}
	if cfg.trace {
		return traceRemoteSolve(cfg, a, b, ref)
	}
	mem := newMemProbe()
	res := newResult()
	var setups samples
	var srv *exportServer
	var remote *solveSystem
	for i := 0; i < cfg.setups; i++ {
		t0 := now()
		if srv, remote, err = remoteSetup(a, b); err != nil {
			return nil, err
		}
		setups = append(setups, now()-t0)
		if i < cfg.setups-1 {
			remote.close()
			srv.exp.Close()
		}
	}
	defer srv.exp.Close()
	defer remote.close()

	// Remote and direct solves alternate over the whole run, so the two
	// medians sample the same stretch of host time. Timed one after the
	// other, the direct solves' last quarter of the run drifted with the
	// host's load by up to a quarter from run to run.
	var solves, directs samples
	var allocs uint64
	var solveNs int64
	check := func(x []float64, iters int, err error, s *solveSystem) {
		res.attempted++
		if !ref.ok(x, iters, err, s) {
			res.failed++
		}
	}
	start := now()
	for now()-start < int64(cfg.budget(1)) {
		a0 := mem.allocated()
		t0 := now()
		x, iters, err := remote.solve(b)
		t1 := now()
		allocs += mem.allocated() - a0
		solves = append(solves, t1-t0)
		solveNs += t1 - t0
		check(x, iters, err, remote)

		t0 = now()
		x, iters, err = direct.solve(b)
		t1 = now()
		directs = append(directs, t1-t0)
		check(x, iters, err, direct)
		mem.sample(t1)
	}

	n := len(solves)
	mt := res.metrics
	mt["setup_s"] = setups.quantile(0.5) / 1e9
	mt["op_ms_p50"] = solves.p50ms()
	mt["op_ms_p90"] = solves.p90ms()
	mt["aux_ms_p50"] = directs.p50ms()
	mt["alloc_kb_per_op"] = float64(allocs) / float64(max(n, 1)) / 1024
	mt["peak_heap_mb"] = mem.peakMB()
	res.note("setup_s", mt["setup_s"], "s", len(setups))
	res.note("solve_ms_p50", mt["op_ms_p50"], "ms", n)
	res.note("solve_ms_p90", mt["op_ms_p90"], "ms", n)
	res.note("solves_per_s", float64(n)/(float64(solveNs)/1e9), "1/s", n)
	res.note("direct_solve_ms_p50", mt["aux_ms_p50"], "ms", len(directs))
	res.note("alloc_kb_per_op", mt["alloc_kb_per_op"], "KiB", n)
	res.note("peak_heap_mb", mt["peak_heap_mb"], "MiB", n)
	res.guard("esi.solve_iters", float64(ref.iters))
	res.check("remote-matches-direct", res.failed == 0 && n > 0,
		"%d of %d solves differ from the direct solve (%d iterations) or miss relres %g",
		res.failed, res.attempted, ref.iters, solveTol)
	return res, nil
}

// traceRemoteSolve alternates plain remote solves with traced ones, which
// run through the pass-through component against a timed server-side
// operator.
func traceRemoteSolve(cfg config, a *linalg.CSR, b []float64, ref solveCheck) (*result, error) {
	srv, plain, err := remoteSetup(a, b)
	if err != nil {
		return nil, err
	}
	defer srv.exp.Close()
	defer plain.close()
	server := &timedOperator{OperatorComponent: esi.NewOperatorComponent(a)}
	key, err := srv.export("timed", server)
	if err != nil {
		return nil, err
	}
	through := &passThrough{}
	traced, err := remoteSystem(srv, key, through)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	if _, _, err := traced.solve(b); err != nil {
		return nil, err
	}
	through.ns.Store(0)
	through.calls.Store(0)
	server.ns.Store(0)
	server.calls.Store(0)

	res := newResult()
	var plainT, tracedT samples
	before := readCounters()
	start := now()
	for i := 0; i < 2 || now()-start < int64(cfg.budget(1)); i++ { // at least one of each
		s, into := plain, &plainT
		if i%2 == 1 {
			s, into = traced, &tracedT
		}
		t0 := now()
		x, iters, err := s.solve(b)
		*into = append(*into, now()-t0)
		res.attempted++
		if !ref.ok(x, iters, err, s) {
			res.failed++
		}
	}
	win := counters{}
	win.add(before, readCounters())

	for _, s := range perLayer {
		res.metrics[s.name] = 0
	}
	mt := res.metrics
	solves := float64(max(res.attempted, 1))
	applies := float64(max(through.calls.Load(), 1))
	clientNs, serverNs := float64(through.ns.Load()), float64(server.ns.Load())
	wire := win.get("transport.bytes_sent") / solves
	// Each Apply carries x and y out and y back: three vectors of payload.
	payload := applies / float64(max(len(tracedT), 1)) * float64(3*8*a.NRows)
	mt["transport.frames_per_op"] = win.get("transport.frames_sent") / solves
	mt["transport.bytes_per_op"] = wire
	mt["transport.wire_efficiency"] = payload / max(wire, 1)
	mt["orb.roundtrip_us"] = (clientNs - serverNs) / 1e3 / applies
	mt["orb.calls_per_op"] = win.orbClientCalls() / solves
	mt["orb.retries_per_op"] = win.orbRetries() / solves
	mt["dist.remote_apply_us"] = clientNs / 1e3 / applies
	mt["esi.server_apply_us"] = serverNs / 1e3 / float64(max(server.calls.Load(), 1))
	mt["esi.solve_iters"] = float64(ref.iters)
	mt["bench.trace_overhead_pct"] = 100 * (tracedT.quantile(0.5)/plainT.quantile(0.5) - 1)
	res.note("solve_ms_p50", plainT.p50ms(), "ms", len(plainT))
	res.note("traced_solve_ms_p50", tracedT.p50ms(), "ms", len(tracedT))
	res.guard("esi.solve_iters", float64(ref.iters))
	res.check("remote-matches-direct", res.failed == 0 && len(tracedT) > 0,
		"%d of %d solves differ from the direct solve (%d iterations) or miss relres %g",
		res.failed, res.attempted, ref.iters, solveTol)
	return res, nil
}
