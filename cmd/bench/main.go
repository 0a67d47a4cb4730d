// Command bench is the reproduction's experiment harness: it runs the
// experiments of DESIGN.md's per-experiment index (E1–E11) with wall-clock
// timing loops and prints one table per experiment — the rows EXPERIMENTS.md
// records. Unlike the testing.B benchmarks in bench_test.go (which are the
// precise per-op measurements), this binary is the "reproduce the paper's
// evaluation in one command" entry point.
//
// Usage:
//
//	bench                  run every experiment
//	bench -run e1,e4       run selected experiments
//	bench -ablation        include the design-choice ablations
//	bench -quick           shorter timing loops
//	bench -json out.json   also write machine-readable results
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/beans"
	"repro/internal/cca"
	"repro/internal/cca/collective"
	"repro/internal/cca/framework"
	dcollective "repro/internal/dist/collective"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/sidl"
	"repro/internal/sidl/codegen"
	"repro/internal/sidl/sreflect"
	"repro/internal/transport"
)

var (
	ablation = flag.Bool("ablation", false, "include design-choice ablations")
	quick    = flag.Bool("quick", false, "shorter timing loops")
	jsonPath = flag.String("json", "", "write machine-readable results to this path")
)

// benchResult is one measurement row of the -json output; the envelope and
// field meanings are documented in EXPERIMENTS.md.
type benchResult struct {
	Experiment  string  `json:"experiment"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"` // -1 when not measured (multi-rank runs)
}

var results []benchResult

// record captures one row for -json output; a no-op without the flag.
func record(experiment, name string, ns, allocs float64) {
	if *jsonPath == "" {
		return
	}
	results = append(results, benchResult{Experiment: experiment, Name: name, NsPerOp: ns, AllocsPerOp: allocs})
}

func writeJSON(path string) error {
	env := struct {
		Schema     string        `json:"schema"`
		Timestamp  string        `json:"timestamp"`
		GoVersion  string        `json:"go_version"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Quick      bool          `json:"quick"`
		Results    []benchResult `json:"results"`
	}{
		Schema:     "repro-bench/1",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Results:    results,
	}
	if env.Results == nil {
		env.Results = []benchResult{} // emit [] rather than null
	}
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	runList := flag.String("run", "", "comma-separated experiment ids (e1..e15, e7b); empty = all")
	testing.Init() // registers test.* flags; measureAllocs runs testing.Benchmark
	flag.Parse()
	// Point the stdlib benchmark harness at the same time budget the
	// hand-rolled measurement loops use.
	check(flag.Set("test.benchtime", budget().String()))

	wanted := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			wanted[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	all := []struct {
		id   string
		name string
		fn   func()
	}{
		{"e1", "E1 — §6.2 connection-mechanism call overhead (claims C1, C2)", e1},
		{"e2", "E2 — §3.3 in-process ORB vs direct port (claim C3)", e2},
		{"e3", "E3 — §3.2 event delivery vs port fan-out (claim C4)", e3},
		{"e4", "E4 — §6.3 collective-port redistribution (claim C5)", e4},
		{"e6", "E6 — §6.1 connection mechanics (Figure 3)", e6},
		{"e7", "E7 — §5 SIDL toolchain", e7},
		{"e7b", "E7b — §6.1 supervision overhead (happy path)", e7b},
		{"e8", "E8 — §2.2 ESI solver swap", e8},
		{"e9", "E9 — MPI collective scaling", e9},
		{"e10", "E10 — observability overhead (metrics + tracing vs dark)", e10},
		{"e11", "E11 — §6.3 cross-process collective pull over the ORB", e11},
		{"e12", "E12 — same-host transport matrix (inproc/shm/tcp) + SIMD kernels", e12},
		{"e13", "E13 — high-fan-out serving tier (epoch cache + admission control)", e13},
		{"e14", "E14 — recovery: checkpoint/restore latency + hot-swap window under load", e14},
		{"e15", "E15 — SPMD fabric: collectives over goroutine vs process (tcp/shm) backends", e15},
	}
	for _, exp := range all {
		if len(wanted) > 0 && !wanted[exp.id] {
			continue
		}
		fmt.Printf("\n== %s ==\n", exp.name)
		exp.fn()
	}
	if len(wanted) == 0 || wanted["e5"] {
		fmt.Println("\n== E5 — Figure 1 pipeline (ports vs monolith) ==")
		fmt.Println("E5 needs testing.B statistics; run:")
		fmt.Println("  go test -bench=BenchmarkE5 -benchtime=1000x .")
	}
	if *jsonPath != "" {
		check(writeJSON(*jsonPath))
		fmt.Printf("\nwrote %d results to %s\n", len(results), *jsonPath)
	}
}

// budget returns the per-measurement time budget.
func budget() time.Duration {
	if *quick {
		return 20 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// measure runs f repeatedly until the budget elapses and reports ns/op.
func measure(f func()) float64 {
	ns, _ := measureAllocs(f)
	return ns
}

// measureAllocs is measure plus a heap-allocation count per op. It runs f
// under the stdlib benchmark harness (testing.Benchmark honors the
// test.benchtime value main derives from the budget), so allocs/op comes
// from BenchmarkResult.AllocsPerOp — an integer, computed the same way
// `go test -benchmem` computes it. Earlier versions divided raw MemStats
// deltas by the iteration count, which leaked fractional artifacts like
// 2.0003 into the -json output whenever a background goroutine allocated
// during the timing window.
func measureAllocs(f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm up outside the timed region
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return ns, float64(r.AllocsPerOp())
}

// measureConcurrent times callers goroutines running f concurrently until
// the budget elapses. It reports aggregate ns/op (wall time over total
// completed ops — the throughput view, which is what concurrency improves)
// and process-wide allocs/op (client and server share the process here, so
// the figure covers both sides of each call).
func measureConcurrent(callers int, f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm up
	per := 1
	var m0, m1 runtime.MemStats
	for {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					f()
				}
			}()
		}
		wg.Wait()
		el := time.Since(start)
		total := callers * per
		if el >= budget() {
			runtime.ReadMemStats(&m1)
			// Report whole allocations per op, matching measureAllocs:
			// the Mallocs delta includes stray background allocations, and
			// a fractional count is measurement noise, not a result.
			return float64(el.Nanoseconds()) / float64(total),
				math.Floor(float64(m1.Mallocs-m0.Mallocs)/float64(total) + 0.5)
		}
		if el <= 0 {
			per *= 1000
			continue
		}
		scale := float64(budget()) / float64(el) * 1.3
		if scale < 2 {
			scale = 2
		}
		per = int(float64(per) * scale)
	}
}

// measureParallel measures a collective operation in lock-step across the
// communicator: rank 0 chooses iteration counts and broadcasts them, so
// every rank executes the same number of collective calls (anything else
// deadlocks a collective benchmark).
func measureParallel(c *mpi.Comm, f func()) float64 {
	f() // warm up (collective: all ranks run it once)
	n := 1
	for {
		nv, err := c.Bcast(0, n)
		if err != nil {
			panic(err)
		}
		n = nv.(int)
		if n == 0 {
			return 0 // only non-root ranks take this path
		}
		if err := c.Barrier(); err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if err := c.Barrier(); err != nil {
			panic(err)
		}
		if c.Rank() != 0 {
			continue
		}
		el := time.Since(start)
		if el >= budget() {
			// Tell the others we are done, then report.
			if _, err := c.Bcast(0, 0); err != nil {
				panic(err)
			}
			return float64(el.Nanoseconds()) / float64(n)
		}
		scale := float64(budget()) / float64(el+1) * 1.3
		if scale < 2 {
			scale = 2
		}
		if scale > 1000 {
			scale = 1000
		}
		n = int(float64(n) * scale)
	}
}

// --- E1 ---

type e1Op struct{}

func (e1Op) TypeName() string { return "bench.Op" }
func (e1Op) Rows() int32      { return 4 }
func (e1Op) Apply(x []float64, y *[]float64) error {
	out := *y
	for i := range out {
		out[i] = 2 * x[i]
	}
	return nil
}

func e1() {
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)

	var direct esi.EsiOperator = e1Op{}
	stub := esi.NewEsiOperatorStub(e1Op{})
	double := esi.NewEsiOperatorStub(esi.NewEsiOperatorStub(e1Op{}))

	// Direct-connect through a real framework.
	fw := framework.New(framework.Options{})
	check(fw.Install("p", provider{}))
	u := &user{}
	check(fw.Install("u", u))
	_, err := fw.Connect("u", "op", "p", "op")
	check(err)
	port, err := u.svc.GetPort("op")
	check(err)
	connected := port.(esi.EsiOperator)

	info, _ := sreflect.Global.Lookup("esi.Operator")
	dmi, err := sreflect.NewObject(info, e1Op{})
	check(err)

	rows := []struct {
		name string
		fn   func()
	}{
		{"direct Go call", func() { direct.Apply(x, &y) }},
		{"direct-connect port", func() { connected.Apply(x, &y) }},
		{"SIDL stub (1 binding)", func() { stub.Apply(x, &y) }},
		{"SIDL stub (2 bindings)", func() { double.Apply(x, &y) }},
		{"reflection DMI", func() { dmi.Call("apply", x, &y) }},
	}
	base := 0.0
	fmt.Printf("%-24s %12s %8s\n", "mechanism", "ns/call", "×direct")
	for i, r := range rows {
		ns, allocs := measureAllocs(r.fn)
		if i == 0 {
			base = ns
		}
		record("e1", r.name, ns, allocs)
		fmt.Printf("%-24s %12.2f %8.2f\n", r.name, ns, ns/base)
	}
	fmt.Println("paper claim C1: port ≈ direct; C2: SIDL binding ≈ 2-3 extra calls")
}

type provider struct{}

func (provider) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(e1Op{}, cca.PortInfo{Name: "op", Type: esi.TypeOperator})
}

type user struct{ svc cca.Services }

func (u *user) SetServices(svc cca.Services) error {
	u.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "op", Type: esi.TypeOperator})
}

// --- E2 ---

type e2Sum struct{}

func (e2Sum) Sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// BindSkeleton gives the ORB a direct func binding (Babel-skeleton
// style), keeping reflect method values — and their per-call receiver
// allocation — out of the measured dispatch path.
func (s e2Sum) BindSkeleton(bind func(string, any)) { bind("sum", s.Sum) }

func e2() {
	f, err := sidl.Parse(`package bench { interface Sum { double sum(in array<double,1> xs); } }`)
	check(err)
	tbl, err := sidl.Resolve(f)
	check(err)
	var info *sreflect.TypeInfo
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "bench.Sum" {
			info = ti
		}
	}
	o := orb.NewInProcessORB()
	check(o.OA.Register("sum", info, e2Sum{}))
	proxy := o.Proxy("sum")

	fmt.Printf("%-12s %14s %14s %10s\n", "payload", "port ns/call", "ORB ns/call", "slowdown")
	for _, n := range []int{1, 16, 256, 4096, 65536} {
		xs := make([]float64, n)
		var srv e2Sum
		dn, dAllocs := measureAllocs(func() { _ = srv.Sum(xs) })
		on, oAllocs := measureAllocs(func() {
			if _, err := proxy.Invoke("sum", xs); err != nil {
				panic(err)
			}
		})
		record("e2", fmt.Sprintf("port/%dB", 8*n), dn, dAllocs)
		record("e2", fmt.Sprintf("orb/%dB", 8*n), on, oAllocs)
		fmt.Printf("%-12s %14.1f %14.1f %9.0f×\n", fmt.Sprintf("%dB", 8*n), dn, on, on/dn)
	}
	fmt.Println("paper claim C3: same-address-space ORB calls are far too inefficient")
	e2Remote(info)
}

// e2Remote measures the genuinely remote half of E2: one TCP connection,
// 1/4/16 concurrent in-flight callers. "serial" recreates the
// pre-multiplexing client — one outstanding request per connection — by
// wrapping Invoke in a mutex; "mux" lets the pipelined client correlate
// concurrent calls on the wire, so N callers share round trips instead of
// paying N of them.
func e2Remote(info *sreflect.TypeInfo) {
	oa := orb.NewObjectAdapter()
	check(oa.Register("sum", info, e2Sum{}))
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.Serve(oa, l)
	defer srv.Stop()
	c, err := orb.DialClient(transport.TCP{}, srv.Addr())
	check(err)
	defer c.Close()

	fmt.Printf("\nremote TCP, concurrent in-flight callers on one connection:\n")
	fmt.Printf("%-10s %8s %14s %14s %9s %12s\n",
		"payload", "callers", "serial ns/op", "mux ns/op", "speedup", "mux allocs")
	var serialMu sync.Mutex
	for _, n := range []int{1, 4096} {
		xs := make([]float64, n)
		invoke := func() {
			if _, err := c.Invoke("sum", "sum", xs); err != nil {
				panic(err)
			}
		}
		for _, callers := range []int{1, 4, 16} {
			sn, sAllocs := measureConcurrent(callers, func() {
				serialMu.Lock()
				invoke()
				serialMu.Unlock()
			})
			mn, mAllocs := measureConcurrent(callers, invoke)
			record("e2", fmt.Sprintf("remote-serial/c=%d/%dB", callers, 8*n), sn, sAllocs)
			record("e2", fmt.Sprintf("remote-mux/c=%d/%dB", callers, 8*n), mn, mAllocs)
			fmt.Printf("%-10s %8d %14.1f %14.1f %8.1f× %12.1f\n",
				fmt.Sprintf("%dB", 8*n), callers, sn, mn, sn/mn, mAllocs)
		}
	}
	fmt.Println("mux: correlation-ID pipelining; serial: one outstanding call per connection")
}

// --- E3 ---

func e3() {
	fmt.Printf("%-10s %16s %16s %8s\n", "listeners", "events ns/fire", "ports ns/fire", "ratio")
	for _, fan := range []int{1, 4, 16, 64} {
		bean := beans.NewBean("src")
		var acc float64
		for i := 0; i < fan; i++ {
			bean.AddListener("tick", beans.ListenerFunc(func(e beans.Event) {
				acc += e.Payload.(float64)
			}))
		}
		en, eAllocs := measureAllocs(func() { bean.Fire("tick", 1.5) })

		sinks := make([]*tickSink, fan)
		for i := range sinks {
			sinks[i] = &tickSink{}
		}
		pn, pAllocs := measureAllocs(func() {
			for _, s := range sinks {
				s.Tick(1.5)
			}
		})
		record("e3", fmt.Sprintf("events/fan=%d", fan), en, eAllocs)
		record("e3", fmt.Sprintf("ports/fan=%d", fan), pn, pAllocs)
		fmt.Printf("%-10d %16.1f %16.1f %7.1f×\n", fan, en, pn, en/pn)
	}
}

type tickSink struct{ acc float64 }

func (t *tickSink) Tick(v float64) { t.acc += v }

// --- E4 ---

func e4() {
	ranks := func(lo, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i
		}
		return out
	}
	type caseT struct {
		name  string
		world int
		src   collective.Side
		dst   collective.Side
	}
	const n = 100000
	cases := []caseT{
		{"matched 4→4 (fast path)", 4, collective.Block(n, ranks(0, 4)), collective.Block(n, ranks(0, 4))},
		{"block 4→cyclic 4", 8, collective.Block(n, ranks(0, 4)), collective.Cyclic(n, 64, ranks(4, 4))},
		{"scatter 1→4", 5, collective.Serial(n, 0), collective.Block(n, ranks(1, 4))},
		{"gather 4→1", 5, collective.Block(n, ranks(0, 4)), collective.Serial(n, 4)},
		{"block 2→8", 10, collective.Block(n, ranks(0, 2)), collective.Block(n, ranks(2, 8))},
	}
	fmt.Printf("%-26s %6s %10s %12s\n", "pattern", "msgs", "µs/xfer", "MB/s")
	for _, c := range cases {
		plan, err := collective.NewPlan(c.src, c.dst)
		check(err)
		ns := measureTransfer(plan, c.world, false)
		record("e4", c.name, ns, -1)
		fmt.Printf("%-26s %6d %10.1f %12.0f\n", c.name, plan.Messages(), ns/1e3, 8*float64(n)/ns*1e3)
		if *ablation && plan.Matched() {
			nsF := measureTransfer(plan, c.world, true)
			record("e4", c.name+" (fast path disabled)", nsF, -1)
			fmt.Printf("%-26s %6s %10.1f %12.0f\n", "  └ fast path disabled", "-", nsF/1e3, 8*float64(n)/nsF*1e3)
		}
	}
	fmt.Println("paper claim C5: matched maps need no redistribution; serial↔parallel ≈ scatter/gather")
}

func measureTransfer(plan *collective.Plan, world int, forced bool) float64 {
	var ns float64
	mpi.Run(world, func(c *mpi.Comm) {
		local := make([]float64, plan.SrcLocalLen(c.Rank()))
		out := make([]float64, plan.DstLocalLen(c.Rank()))
		body := func() {
			var err error
			if forced {
				err = plan.TransferForced(c, local, out)
			} else {
				err = plan.Transfer(c, local, out)
			}
			if err != nil {
				panic(err)
			}
		}
		v := measureParallel(c, body)
		if c.Rank() == 0 {
			ns = v
		}
	})
	return ns
}

// --- E6 ---

func e6() {
	fw := framework.New(framework.Options{})
	check(fw.Install("p", provider{}))
	u := &user{}
	check(fw.Install("u", u))

	connDisc, cdAllocs := measureAllocs(func() {
		id, err := fw.Connect("u", "op", "p", "op")
		if err != nil {
			panic(err)
		}
		if err := fw.Disconnect(id); err != nil {
			panic(err)
		}
	})
	_, err := fw.Connect("u", "op", "p", "op")
	check(err)
	getPort, gpAllocs := measureAllocs(func() {
		if _, err := u.svc.GetPort("op"); err != nil {
			panic(err)
		}
		u.svc.ReleasePort("op")
	})
	record("e6", "connect+disconnect", connDisc, cdAllocs)
	record("e6", "getPort+release", getPort, gpAllocs)
	fmt.Printf("connect+disconnect: %8.1f ns (%.2fM ops/s)\n", connDisc, 1e3/connDisc)
	fmt.Printf("getPort+release:    %8.1f ns (%.2fM ops/s)\n", getPort, 1e3/getPort)
}

// --- E7 ---

func e7() {
	esiSrc, portsSrc := esi.Sources()
	src := esiSrc + "\n" + portsSrc
	parsed, err := sidl.Parse(src)
	check(err)
	tbl, err := sidl.Resolve(parsed)
	check(err)

	lex := measure(func() {
		if _, err := sidl.Lex(src); err != nil {
			panic(err)
		}
	})
	parse := measure(func() {
		if _, err := sidl.Parse(src); err != nil {
			panic(err)
		}
	})
	resolve := measure(func() {
		if _, err := sidl.Resolve(parsed); err != nil {
			panic(err)
		}
	})
	gen := measure(func() {
		if _, err := codegen.Generate(tbl, codegen.Options{PackageName: "x", Reflection: true}); err != nil {
			panic(err)
		}
	})
	kb := float64(len(src)) / 1024
	fmt.Printf("corpus: %.1f KiB, %d types\n", kb, len(tbl.Order))
	fmt.Printf("%-10s %10s %12s\n", "stage", "µs/pass", "MiB/s")
	for _, row := range []struct {
		name string
		ns   float64
	}{{"lex", lex}, {"parse", parse}, {"resolve", resolve}, {"codegen", gen}} {
		record("e7", row.name, row.ns, -1)
		fmt.Printf("%-10s %10.1f %12.1f\n", row.name, row.ns/1e3, kb/1024/(row.ns/1e9))
	}
}

// e7b measures what supervision costs on the happy path: the same remote
// call over one TCP connection, through the bare multiplexed client and
// through the Supervised wrapper (classification, idempotent retry
// bookkeeping, circuit-breaker check, heartbeat timer armed). The
// robustness machinery must not erode claim C1 — the target is staying
// within 5% of the unsupervised path. (Its own experiment ID: these rows
// once recorded under "e7" and collided with the SIDL toolchain rows.)
func e7b() {
	f, err := sidl.Parse(`package bench { interface Sum { double sum(in array<double,1> xs); } }`)
	check(err)
	tbl, err := sidl.Resolve(f)
	check(err)
	var info *sreflect.TypeInfo
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "bench.Sum" {
			info = ti
		}
	}
	oa := orb.NewObjectAdapter()
	check(oa.Register("sum", info, e2Sum{}))
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.Serve(oa, l)
	defer srv.Stop()

	bare, err := orb.DialClient(transport.TCP{}, srv.Addr())
	check(err)
	defer bare.Close()
	sup, err := orb.DialSupervised(transport.TCP{}, srv.Addr(), orb.SupervisorOptions{
		Idempotent: orb.AllIdempotent,
		Heartbeat:  time.Second,
	})
	check(err)
	defer sup.Close()

	fmt.Printf("\nsupervision overhead, remote TCP happy path:\n")
	fmt.Printf("%-10s %14s %16s %10s\n", "payload", "bare ns/call", "superv. ns/call", "overhead")
	for _, n := range []int{1, 4096} {
		xs := make([]float64, n)
		bn, bAllocs := measureAllocs(func() {
			if _, err := bare.Invoke("sum", "sum", xs); err != nil {
				panic(err)
			}
		})
		sn, sAllocs := measureAllocs(func() {
			if _, err := sup.Invoke("sum", "sum", xs); err != nil {
				panic(err)
			}
		})
		record("e7b", fmt.Sprintf("remote-bare/%dB", 8*n), bn, bAllocs)
		record("e7b", fmt.Sprintf("remote-supervised/%dB", 8*n), sn, sAllocs)
		fmt.Printf("%-10s %14.1f %16.1f %9.1f%%\n",
			fmt.Sprintf("%dB", 8*n), bn, sn, 100*(sn-bn)/bn)
	}
	fmt.Println("target: supervised within 5% of bare (robustness must not erode C1)")
}

// --- E8 ---

func e8() {
	const grid = 64
	a := linalg.Poisson2D(grid, grid)
	rhs := make([]float64, a.NRows)
	check(a.Apply(linalg.Ones(a.NCols), rhs))
	fmt.Printf("system: 2-D Poisson %d² = %d unknowns\n", grid, a.NRows)
	fmt.Printf("%-10s %-8s %8s %12s %12s\n", "solver", "prec", "iters", "relres", "ms/solve")

	type result struct {
		method, prec string
		iters        int32
		res          float64
		ms           float64
	}
	var rows []result
	for _, method := range []string{"cg", "gmres", "bicgstab"} {
		for _, prec := range []string{"none", "jacobi", "sor", "ilu0"} {
			fw := framework.New(framework.Options{TypeCheck: esi.TypeChecker()})
			check(fw.Install("op", esi.NewOperatorComponent(a)))
			check(fw.Install("solver", esi.NewSolverComponent(method)))
			check(fw.Install("prec", esi.NewPreconditionerComponent(prec)))
			for _, c := range [][4]string{{"solver", "A", "op", "A"}, {"prec", "A", "op", "A"}, {"solver", "M", "prec", "M"}} {
				_, err := fw.Connect(c[0], c[1], c[2], c[3])
				check(err)
			}
			comp, _ := fw.Component("solver")
			solver := comp.(esi.EsiSolver)
			solver.SetTolerance(1e-8)
			var iters int32
			ns := measure(func() {
				x := make([]float64, a.NRows)
				it, err := solver.Solve(rhs, &x)
				if err != nil {
					panic(err)
				}
				iters = it
			})
			rows = append(rows, result{method, prec, iters, solver.FinalResidual(), ns / 1e6})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms < rows[j].ms })
	for _, r := range rows {
		record("e8", r.method+"/"+r.prec, r.ms*1e6, -1)
		fmt.Printf("%-10s %-8s %8d %12.3e %12.2f\n", r.method, r.prec, r.iters, r.res, r.ms)
	}
}

// --- E9 ---

func e9() {
	fmt.Printf("%-12s %6s %10s %14s\n", "collective", "ranks", "floats", "µs/op")
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1, 1024, 131072} {
			var bcast, allred float64
			mpi.Run(p, func(c *mpi.Comm) {
				data := make([]float64, n)
				v := measureParallel(c, func() {
					var in []float64
					if c.Rank() == 0 {
						in = data
					}
					if _, err := c.BcastFloat64(0, in); err != nil {
						panic(err)
					}
				})
				if c.Rank() == 0 {
					bcast = v
				}
			})
			mpi.Run(p, func(c *mpi.Comm) {
				data := make([]float64, n)
				v := measureParallel(c, func() {
					if _, err := c.AllreduceFloat64(data, mpi.Sum); err != nil {
						panic(err)
					}
				})
				if c.Rank() == 0 {
					allred = v
				}
			})
			record("e9", fmt.Sprintf("bcast/p=%d/n=%d", p, n), bcast, -1)
			record("e9", fmt.Sprintf("allreduce/p=%d/n=%d", p, n), allred, -1)
			fmt.Printf("%-12s %6d %10d %14.1f\n", "bcast", p, n, bcast/1e3)
			fmt.Printf("%-12s %6d %10d %14.1f\n", "allreduce", p, n, allred/1e3)
		}
	}
}

// --- E10 ---

// e10 measures what the observability layer costs where it matters: the
// remote TCP hot path (per-method RED metrics and, when enabled, span
// recording per call) and the direct-connect GetPort path (one gated
// sharded-counter increment after the existing atomic claim). Three
// configurations: everything dark, metrics on (the shipping default), and
// metrics + tracing. Claim C1's budget applies — the default must stay
// within 5% of the dark path, and GetPort must stay at ~0%.
func e10() {
	f, err := sidl.Parse(`package bench { interface Sum { double sum(in array<double,1> xs); } }`)
	check(err)
	tbl, err := sidl.Resolve(f)
	check(err)
	var info *sreflect.TypeInfo
	for _, ti := range sreflect.FromTable(tbl) {
		if ti.QName == "bench.Sum" {
			info = ti
		}
	}
	oa := orb.NewObjectAdapter()
	check(oa.Register("sum", info, e2Sum{}))
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.Serve(oa, l)
	defer srv.Stop()
	c, err := orb.DialClient(transport.TCP{}, srv.Addr())
	check(err)
	defer c.Close()

	configure := func(metrics, tracing bool) {
		obs.SetMetricsEnabled(metrics)
		obs.Tracer.SetEnabled(tracing)
	}
	defer configure(true, false) // restore the shipping defaults

	// TCP round trips are noisy relative to the effect being measured, so
	// the configurations are timed round-robin several times and the
	// per-config minimum kept — the standard noise-robust latency
	// estimator, with interleaving so slow drift hits every config alike.
	const reps = 25
	cfgs := [3][2]bool{{false, false}, {true, false}, {true, true}} // dark, metrics, metrics+trace
	minOver := func(fn func()) (best, bestAllocs [3]float64) {
		for r := 0; r < reps; r++ {
			for i, cfg := range cfgs {
				configure(cfg[0], cfg[1])
				ns, allocs := measureAllocs(fn)
				if r == 0 || ns < best[i] {
					best[i], bestAllocs[i] = ns, allocs
				}
			}
		}
		return best, bestAllocs
	}

	fmt.Printf("remote TCP, one call per round trip (min of %d interleaved runs):\n", reps)
	fmt.Printf("%-10s %13s %15s %15s %9s %9s\n",
		"payload", "dark ns/call", "metrics ns/call", "m+trace ns/call", "metrics", "m+trace")
	for _, n := range []int{1, 4096} {
		xs := make([]float64, n)
		invoke := func() {
			if _, err := c.Invoke("sum", "sum", xs); err != nil {
				panic(err)
			}
		}
		ns, allocs := minOver(invoke)
		dark, met, tra := ns[0], ns[1], ns[2]
		record("e10", fmt.Sprintf("remote-dark/%dB", 8*n), dark, allocs[0])
		record("e10", fmt.Sprintf("remote-metrics/%dB", 8*n), met, allocs[1])
		record("e10", fmt.Sprintf("remote-metrics+trace/%dB", 8*n), tra, allocs[2])
		fmt.Printf("%-10s %13.1f %15.1f %15.1f %8.1f%% %8.1f%%\n",
			fmt.Sprintf("%dB", 8*n), dark, met, tra,
			100*(met-dark)/dark, 100*(tra-dark)/dark)
	}

	// Direct-connect GetPort: the C1-critical framework path.
	fw := framework.New(framework.Options{})
	check(fw.Install("p", provider{}))
	u := &user{}
	check(fw.Install("u", u))
	_, err = fw.Connect("u", "op", "p", "op")
	check(err)
	get := func() {
		if _, err := u.svc.GetPort("op"); err != nil {
			panic(err)
		}
		u.svc.ReleasePort("op")
	}
	gpNs, _ := minOver(get)
	gpDark, gpMet := gpNs[0], gpNs[1]
	record("e10", "getport-dark", gpDark, -1)
	record("e10", "getport-metrics", gpMet, -1)
	fmt.Printf("\ngetPort+release: dark %.1f ns, metrics %.1f ns (%+.1f%%)\n",
		gpDark, gpMet, 100*(gpMet-gpDark)/gpDark)
	fmt.Println("target: metrics (the default) within 5% of dark remotely, ~0% on GetPort")
}

// --- E11 ---

// benchDistPort is a static in-memory DistArrayPort for the E11 provider
// cohort.
type benchDistPort struct {
	side collective.Side
	data []float64
}

func (p *benchDistPort) Side() collective.Side { return p.side }
func (p *benchDistPort) LocalData() []float64  { return p.data }

// Snapshot implements collective.SnapshotPort: the bench data is static,
// so the publisher may retain it without copying.
func (p *benchDistPort) Snapshot() []float64 { return p.data }

// e11 measures the distributed collective port: an N-rank consumer cohort
// pulling a block-distributed array from an M-rank provider cohort over
// TCP loopback (both cohorts in this process — the transport path is the
// real cross-process path, only the scheduler's world is synthetic). Four
// reference rows calibrate each size: a single memcpy of the payload; the
// memcpy-equivalent floor of a cross-process transfer (four unavoidable
// passes over the bytes: pack, user→kernel send, kernel→user receive,
// scatter); the raw framed transport streaming the same bytes (the wire
// floor the chunked pull chases); and the in-process E4 transfer for the
// same block→cyclic geometry.
func e11() {
	combos := [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {2, 4}, {4, 1}, {4, 2}, {4, 4}}
	for _, gl := range []int{1_000, 1_000_000} {
		bytes := 8 * float64(gl)
		fmt.Printf("\n%d doubles (%.1f MiB):\n", gl, bytes/(1<<20))
		fmt.Printf("%-24s %10s %12s\n", "case", "µs/pull", "MB/s")

		// One user-space pass over the payload, and the four passes any
		// cross-process path must make.
		srcBuf := make([]float64, gl)
		dstBuf := make([]float64, gl)
		cpNs := measure(func() { copy(dstBuf, srcBuf) })
		record("e11", fmt.Sprintf("memcpy/%d", gl), cpNs, -1)
		fmt.Printf("%-24s %10.1f %12.0f\n", "memcpy (1 pass)", cpNs/1e3, bytes/cpNs*1e3)
		floorNs := measure(func() {
			copy(dstBuf, srcBuf)
			copy(srcBuf, dstBuf)
			copy(dstBuf, srcBuf)
			copy(srcBuf, dstBuf)
		})
		record("e11", fmt.Sprintf("copyfloor/%d", gl), floorNs, -1)
		fmt.Printf("%-24s %10.1f %12.0f\n", "copy floor (4 passes)", floorNs/1e3, bytes/floorNs*1e3)

		// Wire floor: the framed transport blasting the same bytes with no
		// ORB, no chunk protocol, no scatter.
		wireNs := measureE11Stream(gl)
		record("e11", fmt.Sprintf("tcpstream/%d", gl), wireNs, -1)
		fmt.Printf("%-24s %10.1f %12.0f\n", "raw TCP stream", wireNs/1e3, bytes/wireNs*1e3)

		// In-process comparison: E4's scheduler over shared memory, same
		// block 2 → cyclic 2 geometry.
		srcSide := collective.Block(gl, []int{0, 1})
		dstSide := collective.Cyclic(gl, 64, []int{2, 3})
		plan, err := collective.NewPlan(srcSide, dstSide)
		check(err)
		ipNs := measureTransfer(plan, 4, false)
		record("e11", fmt.Sprintf("inproc-2to2/%d", gl), ipNs, -1)
		fmt.Printf("%-24s %10.1f %12.0f\n", "in-process 2→2 (E4)", ipNs/1e3, bytes/ipNs*1e3)

		for _, c := range combos {
			m, n := c[0], c[1]
			ns := measureE11Pull(gl, m, n)
			name := fmt.Sprintf("remote-%dto%d/%d", m, n, gl)
			record("e11", name, ns, -1)
			fmt.Printf("%-24s %10.1f %12.0f   (vs floor %.1fx, vs wire %.1fx)\n",
				fmt.Sprintf("remote %d→%d", m, n), ns/1e3, bytes/ns*1e3, ns/floorNs, ns/wireNs)
		}
	}
	fmt.Println("\ntarget at 1e6 doubles: remote pull within 2x of the 4-pass memcpy-equivalent floor")
}

// measureE11Stream times the framed transport carrying 8·gl bytes of
// 256 KiB frames over TCP loopback to a draining peer: what the socket
// path costs before any collective machinery is layered on it.
func measureE11Stream(gl int) float64 {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	c, err := transport.TCP{}.Dial(l.Addr())
	check(err)
	frame := make([]byte, 256<<10)
	total := 8 * gl
	ns := measure(func() {
		for s := 0; s < total; s += len(frame) {
			n := total - s
			if n > len(frame) {
				n = len(frame)
			}
			if err := c.Send(frame[:n]); err != nil {
				panic(err)
			}
		}
	})
	c.Close() //nolint:errcheck
	l.Close() //nolint:errcheck
	<-done
	return ns
}

// measureE11Pull times one full PullAll — plan reuse, one fresh epoch
// (snapshot and pack), chunked streaming, scatter — of a block(m)→cyclic(n)
// redistribution over TCP. The publisher Advances before every pull, so
// each one pays for a new snapshot rather than a cache hit.
func measureE11Pull(gl, m, n int) float64 {
	srcMap := array.NewBlockMap(gl, m)
	ports := make([]collective.DistArrayPort, m)
	for r := 0; r < m; r++ {
		ports[r] = &benchDistPort{
			side: collective.Side{Map: srcMap},
			data: make([]float64, srcMap.LocalLen(r)),
		}
	}
	oa := orb.NewObjectAdapter()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	check(err)
	srv := orb.Serve(oa, l)
	defer srv.Stop()
	pub, err := dcollective.Publish(oa, "bench", ports)
	check(err)

	dstMap := array.NewCyclicMap(gl, n, 64)
	imp, err := dcollective.Attach(transport.TCP{}, srv.Addr(), "bench", dstMap, dcollective.Options{})
	check(err)
	defer imp.Close()

	outs := make([][]float64, n)
	for r := 0; r < n; r++ {
		outs[r] = make([]float64, dstMap.LocalLen(r))
	}
	ctx := context.Background()
	return measure(func() {
		pub.Advance()
		if err := imp.PullAllInto(ctx, outs); err != nil {
			panic(err)
		}
	})
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
