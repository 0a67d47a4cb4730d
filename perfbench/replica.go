package main

import (
	"fmt"
	"math"

	"repro/internal/cca"
	"repro/internal/hydro"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/viz"
)

// slot names one timed section of a traced replica step.
type slot int

const (
	slotFramework   slot = iota // GetPort, GetPorts, ReleasePort and the monitor call
	slotHydro                   // advection sweep, vector copies, local statistics
	slotHaloStep                // the step's own ghost exchanges
	slotSolve                   // the whole CG solve
	slotReduceStats             // the four statistics Allreduces
	slotHaloOp                  // ghost exchanges inside the operator
	slotSpmv                    // local CSR.Apply inside the operator
	slotPrec                    // preconditioner applications
	slotDotLocal                // local DotPar inside the global dot
	slotDotReduce               // AllreduceScalar inside the global dot
	nSlots
)

// layerClock accumulates one rank's traced time per section. A nil clock
// times nothing, so the plain replica step runs the same code untimed.
type layerClock struct {
	ns    [nSlots]int64
	calls [nSlots]int
	steps int
	iters int
	wall  int64
}

func (lc *layerClock) start() int64 {
	if lc == nil {
		return 0
	}
	return now()
}

func (lc *layerClock) stop(s slot, t int64) {
	if lc != nil {
		lc.ns[s] += now() - t
		lc.calls[s]++
	}
}

// driver is the benchmark's own component. The replica makes its port
// calls through it: the integrator's GetPort("flow") and the flow's
// GetPorts("monitor") fan-out.
type driver struct{ svc cca.Services }

func (d *driver) SetServices(svc cca.Services) error {
	d.svc = svc
	for _, pi := range []cca.PortInfo{
		{Name: "mesh", Type: hydro.TypeMesh},
		{Name: "flow", Type: hydro.TypeFlow},
		{Name: "monitor", Type: hydro.TypeMonitor},
	} {
		if err := svc.RegisterUsesPort(pi); err != nil {
			return err
		}
	}
	return nil
}

// replica composes FlowComponent.Step from the public calls it makes —
// Decomposition.Exchange, CG.Solve over the DistOperator with a Jacobi
// preconditioner and a globally reduced dot, the statistics Allreduces,
// and the port calls — so each call can be timed from outside. Its field
// must stay bit-identical to the component's.
type replica struct {
	g        *fig1Graph
	comm     *mpi.Comm
	svc      cca.Services
	dec      *mesh.Decomposition
	boundary map[int]bool
	u        []float64
	source   []float64
	op       *mesh.DistOperator
	prec     linalg.Preconditioner
	dot      linalg.Dot
	steps    int
	time     float64

	lc     *layerClock
	top    *tracedOp
	tprec  tracedPrec
	tdot   linalg.Dot
	ghosts int // ghost values one exchange receives on this rank
	nbrs   int // ranks one exchange receives from
}

// newReplica installs the driver and a second stats monitor into g's
// cohort and builds the replica's state from the mesh port, mirroring
// FlowComponent's initialization and operator assembly. Traced steps
// accumulate into lc.
func newReplica(g *fig1Graph, src func(x, y float64) float64, lc *layerClock) (*replica, error) {
	d := &driver{}
	if err := g.install("driver", d); err != nil {
		return nil, err
	}
	if err := g.install("rstats", &viz.StatsMonitor{}); err != nil {
		return nil, err
	}
	if err := g.connect(
		[4]string{"driver", "mesh", "mesh", "mesh"},
		[4]string{"driver", "flow", "flow", "flow"},
		[4]string{"driver", "monitor", "rstats", "monitor"}); err != nil {
		return nil, err
	}
	port, err := d.svc.GetPort("mesh")
	if err != nil {
		return nil, err
	}
	mp := port.(hydro.MeshPort)
	if err := d.svc.ReleasePort("mesh"); err != nil {
		return nil, err
	}
	r := &replica{g: g, comm: g.comm, svc: d.svc, dec: mp.Decomp(), boundary: map[int]bool{}, lc: lc}
	m, dec := mp.Mesh(), r.dec
	for _, n := range m.BoundaryNodes() {
		r.boundary[n] = true
	}
	r.source = make([]float64, dec.NumOwned())
	for li, gi := range dec.Owned {
		if !r.boundary[gi] {
			c := m.Coords[gi]
			r.source[li] = src(c[0], c[1])
		}
	}
	var entries []mesh.Entry
	for i := 0; i < m.NumNodes(); i++ {
		if r.boundary[i] {
			entries = append(entries, mesh.Entry{Row: i, Col: i, Val: 1})
			continue
		}
		deg := 0
		for _, j := range m.NodeNeighbors(i) {
			deg++
			if !r.boundary[j] {
				entries = append(entries, mesh.Entry{Row: i, Col: j, Val: -fig1DT * fig1Nu})
			}
		}
		entries = append(entries, mesh.Entry{Row: i, Col: i, Val: 1 + fig1DT*fig1Nu*float64(deg)})
	}
	if r.op, err = mesh.NewDistOperator(dec, r.comm, entries); err != nil {
		return nil, err
	}
	diag := r.op.Local.Diagonal()
	if r.prec, err = linalg.NewJacobiFromDiag(diag[:dec.NumOwned()]); err != nil {
		return nil, err
	}
	r.dot = mesh.GlobalDot(r.comm)
	r.top = &tracedOp{op: r.op, work: make([]float64, dec.NumLocal()), lc: lc}
	r.tprec = tracedPrec{p: r.prec, lc: lc}
	r.tdot = tracedDot(r.comm, lc)
	owners := map[int]bool{}
	for _, gi := range dec.Ghosts {
		owners[dec.Part[gi]] = true
	}
	r.ghosts, r.nbrs = len(dec.Ghosts), len(owners)
	return r, r.reset()
}

// reset sets the field to the initial condition, as FlowComponent's
// initialization does.
func (r *replica) reset() error {
	dec, m := r.dec, r.dec.M
	r.u = make([]float64, dec.NumLocal())
	for li, gi := range dec.Owned {
		if !r.boundary[gi] {
			c := m.Coords[gi]
			dx, dy := c[0]-0.5, c[1]-0.5
			r.u[li] = math.Exp(-50 * (dx*dx + dy*dy))
		}
	}
	r.steps, r.time = 0, 0
	return dec.Exchange(r.comm, r.u)
}

// restart follows a flow-component restart: it reconnects the driver to
// the new flow component and resets the field.
func (r *replica) restart() error {
	if err := r.g.connect([4]string{"driver", "flow", "flow", "flow"}); err != nil {
		return err
	}
	return r.reset()
}

// step advances the replica one timestep, timing each call when traced.
func (r *replica) step(traced bool) (hydro.Stats, error) {
	var lc *layerClock
	op, prec, dot := linalg.Operator(r.op), r.prec, r.dot
	if traced {
		lc = r.lc
		op, prec, dot = r.top, r.tprec, r.tdot
	}
	wall := lc.start()

	t := lc.start()
	port, err := r.svc.GetPort("flow")
	lc.stop(slotFramework, t)
	if err != nil {
		return hydro.Stats{}, err
	}
	if _, ok := port.(hydro.FlowPort); !ok {
		return hydro.Stats{}, fmt.Errorf("flow port is %T", port)
	}
	dec := r.dec
	m, n := dec.M, dec.NumOwned()

	t = lc.start()
	err = dec.Exchange(r.comm, r.u)
	lc.stop(slotHaloStep, t)
	if err != nil {
		return hydro.Stats{}, err
	}

	// Explicit advection with zero velocity, exactly as the component
	// computes it, so the field stays bit-identical.
	t = lc.start()
	ustar := make([]float64, n)
	var v [2]float64
	for li, g := range dec.Owned {
		if r.boundary[g] {
			continue
		}
		ui := r.u[li]
		acc, rate := 0.0, 0.0
		for _, j := range m.NodeNeighbors(g) {
			e := [2]float64{m.Coords[j][0] - m.Coords[g][0], m.Coords[j][1] - m.Coords[g][1]}
			h2 := e[0]*e[0] + e[1]*e[1]
			if h2 == 0 {
				continue
			}
			if c := -(v[0]*e[0] + v[1]*e[1]) / h2; c > 0 {
				acc += c * (r.u[dec.LocalIndex(j)] - ui)
				rate += c
			}
		}
		if fig1DT*rate > 1 {
			return hydro.Stats{}, fmt.Errorf("advection CFL violated at node %d", g)
		}
		ustar[li] = ui + fig1DT*acc
		ustar[li] += fig1DT * r.source[li]
	}
	for li, g := range dec.Owned {
		if r.boundary[g] {
			ustar[li] = r.u[li]
		}
	}
	x := make([]float64, n)
	copy(x, r.u[:n])
	lc.stop(slotHydro, t)

	t = lc.start()
	res, err := (linalg.CG{}).Solve(op, ustar, x, linalg.Options{Tol: fig1Tol, Dot: dot, Prec: prec})
	lc.stop(slotSolve, t)
	if err != nil {
		return hydro.Stats{}, err
	}

	t = lc.start()
	copy(r.u[:n], x)
	lc.stop(slotHydro, t)
	t = lc.start()
	err = dec.Exchange(r.comm, r.u)
	lc.stop(slotHaloStep, t)
	if err != nil {
		return hydro.Stats{}, err
	}
	r.steps++
	r.time += fig1DT

	t = lc.start()
	lmin, lmax, lsum, lsq := math.Inf(1), math.Inf(-1), 0.0, 0.0
	for _, v := range r.u[:n] {
		if v < lmin {
			lmin = v
		}
		if v > lmax {
			lmax = v
		}
		lsum += v
		lsq += v * v
	}
	lc.stop(slotHydro, t)
	var global [4]float64
	for i, red := range []struct {
		v  float64
		op mpi.Op
	}{{lmin, mpi.Min}, {lmax, mpi.Max}, {lsum, mpi.Sum}, {lsq, mpi.Sum}} {
		t = lc.start()
		global[i], err = r.comm.AllreduceScalar(red.v, red.op)
		lc.stop(slotReduceStats, t)
		if err != nil {
			return hydro.Stats{}, err
		}
	}
	stats := hydro.Stats{
		Step: r.steps, Time: r.time,
		Min: global[0], Max: global[1], Mean: global[2] / float64(m.NumNodes()), Norm2: math.Sqrt(global[3]),
		SolveIters: res.Iterations,
	}

	t = lc.start()
	monitors, err := r.svc.GetPorts("monitor")
	if err == nil {
		for _, mp := range monitors {
			if mon, ok := mp.(hydro.MonitorPort); ok {
				mon.Observe(r.steps, stats)
			}
		}
	}
	err = r.svc.ReleasePort("flow")
	lc.stop(slotFramework, t)
	if traced {
		lc.wall += now() - wall
		lc.steps++
		lc.iters += res.Iterations
	}
	return stats, err
}

// tracedOp is DistOperator.Apply split into its ghost exchange and its
// local sparse matrix-vector product.
type tracedOp struct {
	op   *mesh.DistOperator
	work []float64
	lc   *layerClock
}

func (o *tracedOp) Rows() int { return o.op.Rows() }

func (o *tracedOp) Apply(x, y []float64) error {
	copy(o.work[:o.op.D.NumOwned()], x)
	t := o.lc.start()
	err := o.op.D.Exchange(o.op.Comm, o.work)
	o.lc.stop(slotHaloOp, t)
	if err != nil {
		return err
	}
	t = o.lc.start()
	err = o.op.Local.Apply(o.work, y)
	o.lc.stop(slotSpmv, t)
	return err
}

// tracedPrec times each preconditioner application.
type tracedPrec struct {
	p  linalg.Preconditioner
	lc *layerClock
}

func (p tracedPrec) Name() string { return p.p.Name() }

func (p tracedPrec) Solve(r, z []float64) error {
	t := p.lc.start()
	err := p.p.Solve(r, z)
	p.lc.stop(slotPrec, t)
	return err
}

// tracedDot is mesh.GlobalDot split into its local product and its
// Allreduce.
func tracedDot(comm *mpi.Comm, lc *layerClock) linalg.Dot {
	return func(a, b []float64) float64 {
		t := lc.start()
		local := linalg.DotPar(a, b)
		lc.stop(slotDotLocal, t)
		t = lc.start()
		global, err := comm.AllreduceScalar(local, mpi.Sum)
		lc.stop(slotDotReduce, t)
		if err != nil {
			// The same contract as mesh.GlobalDot: a failed reduction
			// leaves the cohort unusable.
			panic("global dot allreduce: " + err.Error())
		}
		return global
	}
}

// fieldsEqual reports whether the replica's owned field is bit-identical
// to the component's.
func (r *replica) fieldsEqual(field []float64) bool {
	n := r.dec.NumOwned()
	if len(field) != n {
		return false
	}
	for i, v := range field {
		if math.Float64bits(v) != math.Float64bits(r.u[i]) {
			return false
		}
	}
	return true
}
