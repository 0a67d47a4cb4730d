package main

import (
	"context"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	dcoll "repro/internal/dist/collective"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// vizGrid is viz-serve's mesh: 129² = 16,641 nodes, one float64 each.
const vizGrid = 128

// vizServer publishes one rank's field through the epoch cache on an ORB
// server over shared memory, with one attached consumer.
type vizServer struct {
	dir  string
	srv  *orb.Server
	pub  *dcoll.Publisher
	imp  *dcoll.Import
	outs [][]float64
}

func serveField(workDir string, port ccoll.DistArrayPort) (*vizServer, error) {
	dir, err := os.MkdirTemp(workDir, "viz-")
	if err != nil {
		return nil, err
	}
	l, err := transport.SHM{}.Listen(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	oa := orb.NewObjectAdapter()
	v := &vizServer{dir: dir, srv: orb.Serve(oa, l)}
	if v.pub, err = dcoll.Publish(oa, "field", []ccoll.DistArrayPort{port}, dcoll.WithEpochCache()); err != nil {
		v.close()
		return nil, err
	}
	n := port.Side().Map.GlobalLen()
	if v.imp, err = dcoll.Attach(transport.SHM{}, dir, "field", array.NewBlockMap(n, 1), dcoll.Options{}); err != nil {
		v.close()
		return nil, err
	}
	v.outs = [][]float64{make([]float64, n)}
	return v, nil
}

// pull fetches the current epoch into the consumer's buffer.
func (v *vizServer) pull() error { return v.imp.PullAllInto(context.Background(), v.outs) }

// matches reports whether the last pull is bit-equal to field. With one
// rank the owned order is the global node order.
func (v *vizServer) matches(field []float64) bool {
	got := v.outs[0]
	if len(got) != len(field) {
		return false
	}
	for i, x := range field {
		if math.Float64bits(x) != math.Float64bits(got[i]) {
			return false
		}
	}
	return true
}

func (v *vizServer) close() {
	if v.imp != nil {
		v.imp.Close()
	}
	if v.pub != nil {
		v.pub.Close()
	}
	v.srv.Stop()
	os.RemoveAll(v.dir)
}

// runVizServe measures a p=1 Figure 1 flow whose field one consumer pulls
// after every step. The primary op is the pull; the companion is the
// simulation step under serving.
func runVizServe(cfg config) (*result, error) {
	if cfg.trace {
		return traceVizServe(cfg)
	}
	src := fig1Source(cfg.seed)
	mem := newMemProbe()
	res := newResult()
	var setups, pulls, steps samples
	var wall int64
	var allocs uint64
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		t0 := now()
		m := mesh.StructuredQuad(vizGrid, vizGrid)
		var runErr error
		mpi.Run(1, func(comm *mpi.Comm) {
			g, err := buildFig1(comm, m, src)
			if err != nil {
				runErr = err
				return
			}
			if _, runErr = g.step(); runErr != nil {
				return
			}
			v, err := serveField(cfg.workDir, g.flow)
			if err != nil {
				runErr = err
				return
			}
			defer v.close()
			v.pub.Advance()
			if runErr = v.pull(); runErr != nil {
				return
			}
			setups = append(setups, now()-t0)
			if !last {
				return
			}
			a0 := mem.allocated()
			start := now()
			for now()-start < int64(cfg.budget(1)) {
				t0 := now()
				if _, runErr = g.step(); runErr != nil {
					return
				}
				t1 := now()
				v.pub.Advance()
				err := v.pull()
				t2 := now()
				steps = append(steps, t1-t0)
				res.attempted++
				if err == nil {
					pulls = append(pulls, t2-t1)
				}
				if err != nil || !v.matches(g.flow.OwnedField()) {
					res.failed++
				}
				mem.sample(t2)
			}
			wall = now() - start
			allocs = mem.allocated() - a0
		})
		if runErr != nil {
			return nil, runErr
		}
	}
	n := len(pulls)
	mt := res.metrics
	mt["setup_s"] = setups.quantile(0.5) / 1e9
	mt["op_ms_p50"] = pulls.p50ms()
	mt["op_ms_p90"] = pulls.p90ms()
	mt["aux_ms_p50"] = steps.p50ms()
	mt["alloc_kb_per_op"] = float64(allocs) / float64(max(res.attempted, 1)) / 1024
	mt["peak_heap_mb"] = mem.peakMB()
	res.note("setup_s", mt["setup_s"], "s", len(setups))
	res.note("pull_ms_p50", mt["op_ms_p50"], "ms", n)
	res.note("pull_ms_p90", mt["op_ms_p90"], "ms", n)
	res.note("step_ms_p50", mt["aux_ms_p50"], "ms", len(steps))
	res.note("step_ms_p90", steps.p90ms(), "ms", len(steps))
	res.note("steps_per_s", float64(len(steps))/(float64(wall)/1e9), "1/s", len(steps))
	res.note("alloc_kb_per_op", mt["alloc_kb_per_op"], "KiB", res.attempted)
	res.note("peak_heap_mb", mt["peak_heap_mb"], "MiB", res.attempted)
	res.check("pulls-bit-equal", res.failed == 0 && n > 0,
		"%d of %d pulls failed or differ from the field of their epoch", res.failed, res.attempted)
	return res, nil
}

// tracedField wraps the published flow port and times the publisher's
// snapshot of it: the copy the publisher would otherwise make itself.
type tracedField struct {
	ccoll.DistArrayPort
	ns, calls atomic.Int64
}

func (f *tracedField) Snapshot() []float64 {
	t := now()
	s := append([]float64(nil), f.LocalData()...)
	f.ns.Add(now() - t)
	f.calls.Add(1)
	return s
}

// traceVizServe runs the traced Figure 1 loop at p=1 with the serving
// hook after every ports step.
func traceVizServe(cfg config) (*result, error) {
	var (
		v                       *vizServer
		field                   *tracedField
		pulls                   samples
		advanceNs               int64
		bad, minChunk, maxChunk int64
	)
	chunks := obs.Default.Counter("collective.chunks_pulled")
	minChunk = math.MaxInt64
	newHook := func(g *fig1Graph) (stepHook, error) {
		if err := g.flow.Initialize(); err != nil {
			return nil, err
		}
		field = &tracedField{DistArrayPort: g.flow}
		var err error
		if v, err = serveField(cfg.workDir, field); err != nil {
			return nil, err
		}
		return func(g *fig1Graph) error {
			t0 := now()
			v.pub.Advance()
			t1 := now()
			c0 := chunks.Value()
			err := v.pull()
			t2 := now()
			advanceNs += t1 - t0
			pulls = append(pulls, t2-t1)
			c := int64(chunks.Value() - c0)
			minChunk, maxChunk = min(minChunk, c), max(maxChunk, c)
			if err != nil || !v.matches(g.flow.OwnedField()) {
				bad++
			}
			return nil
		}, nil
	}
	tr, err := traceFig1(cfg, "go", 1, vizGrid, 0, cfg.budget(1), newHook)
	if v != nil {
		v.close()
	}
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr.layerMetrics(res)
	res.attempted += len(pulls)
	res.failed += int(bad)
	mt := res.metrics
	n := float64(max(len(pulls), 1))
	ratio := func(hits, misses string) float64 {
		h, m := tr.win.get(hits), tr.win.get(misses)
		return h / max(h+m, 1)
	}
	mt["transport.frames_per_op"] = tr.win.get("transport.frames_sent") / n
	mt["transport.bytes_per_op"] = tr.win.get("transport.bytes_sent") / n
	mt["transport.wire_efficiency"] = float64(8*len(v.outs[0])) / max(mt["transport.bytes_per_op"], 1)
	mt["orb.calls_per_op"] = tr.win.orbClientCalls() / n
	mt["orb.retries_per_op"] = tr.win.orbRetries() / n
	mt["dist.snapshot_us"] = float64(field.ns.Load()) / 1e3 / float64(max(field.calls.Load(), 1))
	mt["dist.sim_stall_us_per_step"] = float64(advanceNs+field.ns.Load()) / 1e3 / n
	mt["dist.chunks_per_pull"] = tr.win.get("collective.chunks_pulled") / n
	mt["dist.frame_cache_hit_ratio"] = ratio("collective.frame_cache_hits", "collective.frame_cache_misses")
	mt["dist.epoch_cache_hit_ratio"] = ratio("collective.epoch_cache_hits", "collective.epoch_cache_misses")
	// Plan exchanges happen at attach, before the window: take the totals.
	totals := readCounters()
	mt["collective.plan_cache_hit_ratio"] = totals.get("collective.plan_cache_hits") / max(totals.get("collective.plan_exchanges"), 1)
	res.note("pull_ms_p50", pulls.p50ms(), "ms", len(pulls))
	res.note("pull_ms_p90", pulls.p90ms(), "ms", len(pulls))
	res.guard("dist.chunks_per_pull", float64(maxChunk))
	res.check("pulls-bit-equal", bad == 0 && len(pulls) > 0,
		"%d of %d pulls failed or differ from the field of their epoch", bad, len(pulls))
	res.check("chunks-per-pull-exact", minChunk == maxChunk,
		"chunks per pull ranged %d..%d", minChunk, maxChunk)
	return res, nil
}
