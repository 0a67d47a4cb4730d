package main

import (
	"time"

	"repro/internal/mesh"
	"repro/internal/mpi"
)

// guardSteps is the fixed window of traced steps whose exact counts are
// printed as guards: the same code and seed must repeat them exactly.
const guardSteps = 16

// traceRun is what a traced Figure 1 run records. Every loop iteration
// takes one untraced ports step, then one replica step, alternately plain
// and traced, and checks the replica against the component.
type traceRun struct {
	ports, plain, traced samples // rank 0 step wall times
	loops                int     // loop iterations on rank 0
	mismatches           int     // steps where a replica diverged, all ranks
	win                  counters
	nnz, rows            int          // rank 0's local matrix shape
	clocks               []layerClock // per rank, all traced steps
	guards               []layerClock // per rank, the first guardSteps traced steps
	ghosts, nbrs         []int        // per rank halo shape
}

// stepHook runs on every rank after each ports step; viz-serve uses it to
// publish and pull the field.
type stepHook func(g *fig1Graph) error

// traceFig1 runs the traced loop for budget. With episode > 0 the flow
// component and the replica restart, untimed, after every episode loop
// iterations, as in measureFig1. newHook, when non-nil, builds the
// per-rank hook after the graph is first assembled. Counters are read
// around each batch of steps, after a barrier, so reassembly traffic stays
// out of the window.
func traceFig1(cfg config, backend string, p, grid, episode int, budget time.Duration, newHook func(g *fig1Graph) (stepHook, error)) (*traceRun, error) {
	src := fig1Source(cfg.seed)
	m := mesh.StructuredQuad(grid, grid)
	tr := &traceRun{
		win:    counters{},
		clocks: make([]layerClock, p), guards: make([]layerClock, p),
		ghosts: make([]int, p), nbrs: make([]int, p),
	}
	mismatches := make([]int, p)
	gt := newGate(p)
	batch := stepBatch
	if episode > 0 {
		batch = episode
	}
	err := runCohort(backend, p, cfg.workDir, func(comm *mpi.Comm) {
		rank := comm.Rank()
		lc := &tr.clocks[rank]
		g, err := buildFig1(comm, m, src)
		must(err)
		rep, err := newReplica(g, src, lc)
		must(err)
		warm := func() {
			g.warm()
			_, err := rep.step(false)
			must(err)
		}
		warm()
		var hook stepHook
		if newHook != nil {
			hook, err = newHook(g)
			must(err)
		}
		loops := 0
		t0 := now()
		for first := true; gt.next(rank, now()-t0 < int64(budget)); first = false {
			if !first && episode > 0 {
				must(g.restartFlow())
				must(rep.restart())
				warm()
			}
			must(comm.Barrier())
			var before counters
			if rank == 0 {
				before = readCounters()
			}
			for i := 0; i < batch; i++ {
				t0 := now()
				ps, err := g.step()
				must(err)
				t1 := now()
				if hook != nil {
					must(hook(g))
				}
				traced := loops%2 == 1
				t2 := now()
				rs, err := rep.step(traced)
				must(err)
				t3 := now()
				if ps != rs || !rep.fieldsEqual(g.flow.OwnedField()) {
					mismatches[rank]++
				}
				if rank == 0 {
					tr.ports = append(tr.ports, t1-t0)
					if traced {
						tr.traced = append(tr.traced, t3-t2)
					} else {
						tr.plain = append(tr.plain, t3-t2)
					}
				}
				if traced && lc.steps == guardSteps {
					tr.guards[rank] = *lc
				}
				loops++
			}
			if rank == 0 {
				tr.win.add(before, readCounters())
			}
		}
		if rank == 0 {
			tr.loops = loops
			tr.nnz, tr.rows = rep.op.Local.NNZ(), rep.op.Local.NRows
		}
		tr.ghosts[rank], tr.nbrs[rank] = rep.ghosts, rep.nbrs
	})
	for _, n := range mismatches {
		tr.mismatches += n
	}
	return tr, err
}

// haloShape sums, over ranks, the halo messages and bytes per step of the
// given per-rank clocks.
func (tr *traceRun) haloShape(clocks []layerClock) (msgs, bytes float64) {
	for r, lc := range clocks {
		exchanges := float64(lc.calls[slotHaloStep] + lc.calls[slotHaloOp])
		steps := float64(max(lc.steps, 1))
		msgs += exchanges * float64(tr.nbrs[r]) / steps
		bytes += exchanges * float64(8*tr.ghosts[r]) / steps
	}
	return msgs, bytes
}

// layerMetrics fills the per-layer metrics a traced Figure 1 run measures
// and checks the replica and the layer sum. Metrics of layers the run does
// not reach are set to 0.
func (tr *traceRun) layerMetrics(res *result) {
	for _, s := range perLayer {
		res.metrics[s.name] = 0
	}
	lc := tr.clocks[0]
	steps := float64(max(lc.steps, 1))
	us := func(ns int64, n float64) float64 { return float64(ns) / 1e3 / max(n, 1) }
	calls := func(s slot) float64 { return float64(lc.calls[s]) }
	cgSelf := lc.ns[slotSolve] - lc.ns[slotHaloOp] - lc.ns[slotSpmv] - lc.ns[slotPrec] - lc.ns[slotDotLocal] - lc.ns[slotDotReduce]
	reduceNs := lc.ns[slotDotReduce] + lc.ns[slotReduceStats]
	reduceCalls := calls(slotDotReduce) + calls(slotReduceStats)
	msgs, haloBytes := tr.haloShape(tr.clocks)
	spmvBytes := float64(24*tr.nnz + 16*tr.rows)
	mt := res.metrics
	mt["framework.getport_ns"] = float64(lc.ns[slotFramework]) / (3 * steps)
	mt["framework.ports_overhead_pct"] = 100 * (tr.ports.quantile(0.5)/tr.plain.quantile(0.5) - 1)
	mt["hydro.self_us_per_step"] = us(lc.ns[slotHydro], steps)
	mt["linalg.cg_iters_per_step"] = float64(lc.iters) / steps
	mt["linalg.spmv_us"] = us(lc.ns[slotSpmv], calls(slotSpmv))
	mt["linalg.spmv_gbs_computed"] = spmvBytes * calls(slotSpmv) / float64(max(lc.ns[slotSpmv], 1))
	mt["linalg.precond_us"] = us(lc.ns[slotPrec], calls(slotPrec))
	mt["linalg.dot_local_us"] = us(lc.ns[slotDotLocal], calls(slotDotLocal))
	mt["linalg.cg_self_us_per_step"] = us(cgSelf, steps)
	mt["mesh.halo_us_per_step"] = us(lc.ns[slotHaloStep]+lc.ns[slotHaloOp], steps)
	mt["mesh.halo_msgs_per_step"] = msgs
	mt["mesh.halo_bytes_per_step"] = haloBytes
	mt["mpi.allreduce_us"] = us(reduceNs, reduceCalls)
	mt["mpi.allreduce_calls_per_step"] = reduceCalls / steps

	// Counter windows span every step of the loop: the ports step and the
	// replica step move the same messages.
	allSteps := float64(max(2*tr.loops, 1))
	frames := tr.win.get("mpi.proc.send_frames") / allSteps
	mt["mpi.proc_frames_per_step"] = frames
	mt["mpi.proc_bytes_per_step"] = tr.win.get("mpi.proc.send_bytes") / allSteps
	if wire := tr.win.get("transport.bytes_sent") / allSteps; wire > 0 {
		// Payload: the halo values plus one float64 in every other frame,
		// each of which carries a scalar Allreduce contribution.
		payload := haloBytes + 8*(frames-msgs)
		mt["transport.frames_per_op"] = tr.win.get("transport.frames_sent") / allSteps
		mt["transport.bytes_per_op"] = wire
		mt["transport.wire_efficiency"] = payload / wire
	}

	sum := lc.ns[slotFramework] + lc.ns[slotHydro] + lc.ns[slotHaloStep] + lc.ns[slotSolve] + lc.ns[slotReduceStats]
	gap := 100 * float64(lc.wall-sum) / float64(max(lc.wall, 1))
	mt["bench.trace_overhead_pct"] = 100 * (tr.traced.quantile(0.5)/tr.plain.quantile(0.5) - 1)
	mt["bench.layer_sum_gap_pct"] = gap

	res.attempted = 2 * tr.loops
	res.failed = tr.mismatches
	res.check("replica-bit-identical", tr.mismatches == 0 && tr.loops > 0,
		"%d of %d replica steps diverged from the component's field or stats", tr.mismatches, tr.loops)
	res.check("layer-sum", gap >= -layerSumTolerancePct && gap <= layerSumTolerancePct,
		"layer self times leave %.2f%% of the traced step unaccounted (tolerance ±%.0f%%)", gap, layerSumTolerancePct)
	res.note("ports_step_us_p50", tr.ports.quantile(0.5)/1e3, "us", len(tr.ports))
	res.note("replica_step_us_p50", tr.plain.quantile(0.5)/1e3, "us", len(tr.plain))
	res.note("traced_step_us_p50", tr.traced.quantile(0.5)/1e3, "us", len(tr.traced))

	gm, _ := tr.haloShape(tr.guards)
	g := tr.guards[0]
	res.guard("linalg.cg_iters_first16", float64(g.iters))
	res.guard("mesh.halo_msgs_first16", gm*guardSteps)
	res.guard("mpi.allreduce_calls_first16", float64(g.calls[slotDotReduce]+g.calls[slotReduceStats]))
}

// runFig1Traced is the traced run of a Figure 1 workload.
func runFig1Traced(cfg config, backend string, p, grid, episode int) (*result, error) {
	tr, err := traceFig1(cfg, backend, p, grid, episode, cfg.budget(1), nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr.layerMetrics(res)
	return res, nil
}
