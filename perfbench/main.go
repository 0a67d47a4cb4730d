// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads built on the paper's Figure 1 timestep (mesh → flow →
// Krylov solve → reduce → viz) as a single-process closed loop, checks the
// workload's outputs, and prints the result as one JSON line:
//
//	bash perfbench/run.sh --workload fig1-compute --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end set measured on the real
// component graph; with --trace 1 they are the per-layer set, measured by
// timing calls into each layer from the benchmark's own wrappers. The
// README beside this file explains the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
// "op" is the workload's primary operation and "aux" its companion; see
// workloads below.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"aux_ms_p50", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// does not exercise reads 0 there; the README lists which apply where.
var perLayer = []metricSpec{
	{"framework.getport_ns", "ns"},
	{"framework.ports_overhead_pct", "%"},
	{"hydro.self_us_per_step", "us"},
	{"linalg.cg_iters_per_step", "count"},
	{"linalg.spmv_us", "us"},
	{"linalg.spmv_gbs_computed", "GB/s"},
	{"linalg.precond_us", "us"},
	{"linalg.dot_local_us", "us"},
	{"linalg.cg_self_us_per_step", "us"},
	{"mesh.halo_us_per_step", "us"},
	{"mesh.halo_msgs_per_step", "count"},
	{"mesh.halo_bytes_per_step", "B"},
	{"mpi.allreduce_us", "us"},
	{"mpi.allreduce_calls_per_step", "count"},
	{"mpi.proc_frames_per_step", "count"},
	{"mpi.proc_bytes_per_step", "B"},
	{"transport.frames_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.wire_efficiency", "ratio"},
	{"orb.roundtrip_us", "us"},
	{"orb.calls_per_op", "count"},
	{"orb.retries_per_op", "count"},
	{"dist.remote_apply_us", "us"},
	{"dist.snapshot_us", "us"},
	{"dist.sim_stall_us_per_step", "us"},
	{"dist.chunks_per_pull", "count"},
	{"dist.frame_cache_hit_ratio", "ratio"},
	{"dist.epoch_cache_hit_ratio", "ratio"},
	{"collective.plan_cache_hit_ratio", "ratio"},
	{"esi.solve_iters", "count"},
	{"esi.server_apply_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.layer_sum_gap_pct", "%"},
}

// layerSumTolerancePct is how far, in percent of the traced step's wall
// time, the layer self times of a Figure 1 step may fall short of it.
const layerSumTolerancePct = 5.0

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // where shared-memory ring directories go
	setups  int    // how many times set-up is repeated for setup_s
}

// budget returns share of the run length.
func (c config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// check records an output check; a failed check fails the run.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// note adds a named, unit-labelled line to the human-readable report.
func (r *result) note(name string, value float64, unit string, n int) {
	r.notes = append(r.notes, fmt.Sprintf("%-32s %14.6g %-6s n=%d", name, value, unit, n))
}

// guard records an exact count that must repeat run to run at one seed.
func (r *result) guard(name string, value float64) {
	r.notes = append(r.notes, fmt.Sprintf("guard %s = %v", name, value))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"fig1-compute": runFig1Compute,
	"fig1-fabric":  runFig1Fabric,
	"viz-serve":    runVizServe,
	"remote-solve": runRemoteSolve,
}

func main() {
	workload := flag.String("workload", "", "fig1-compute, fig1-fabric, viz-serve or remote-solve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	workDir := flag.String("workdir", ".bench_build", "directory for run-time scratch files")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	// A wedged collective must not outlive the run's time limit.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded 170s")
		os.Exit(3)
	})
	if err := os.MkdirAll(*workDir, 0o700); err != nil {
		die(err)
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		die(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: dir, setups: 9}
	printEnv(*workload, cfg)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			die(err)
		}
		defer f.Close()
	}
	res, err := run(cfg)
	pprof.StopCPUProfile()
	os.RemoveAll(dir)
	if err != nil {
		die(fmt.Errorf("%s: %w", *workload, err))
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	if err := render(os.Stdout, res, specs); err != nil {
		die(err)
	}
}

// die reports err and exits without printing a result.
func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// render writes the human-readable report and then the result line.
func render(w io.Writer, res *result, specs []metricSpec) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range res.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.name, c.detail)
	}
	fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", "error_rate", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		ms[s.name] = value{v, s.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// printEnv records the host and run settings the numbers depend on.
func printEnv(workload string, cfg config) {
	env := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit("."),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env", string(b))
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Println("warning: GOMAXPROCS < 2; the two-rank workloads share one processor")
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the .git directory under root without running
// git; it returns "unknown" outside a work tree.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
