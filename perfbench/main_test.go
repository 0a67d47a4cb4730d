package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runShort runs one workload for a fraction of a second and returns its
// report lines and parsed result line.
//
// viz-serve is skipped under the race detector: the ORB reply that orders
// the publisher's read of the field before the next step's write travels
// through a shared-memory ring, and the detector does not track
// synchronization through memory mapped outside the Go heap.
func runShort(t *testing.T, workload string, seed int64, trace bool) ([]string, map[string]any) {
	t.Helper()
	if raceEnabled && workload == "viz-serve" {
		t.Skip("viz-serve orders its shared field through a shared-memory ring the race detector cannot see")
	}
	cfg := config{seed: seed, seconds: 0.3, trace: trace, workDir: t.TempDir(), setups: 2}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	var out bytes.Buffer
	if err := render(&out, res, specs); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s trace=%v: last line is not JSON: %v", workload, trace, err)
	}
	return lines, last
}

// TestEveryMetricPrinted runs each workload briefly in both modes and
// checks the result line against BENCHMARK.json: the same workloads, and
// every metric name printed with its unit, correct and with no failures.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) { checkPrinted(t, f, w.Name) })
	}
}

func checkPrinted(t *testing.T, f benchmarkFile, workload string) {
	for _, trace := range []bool{false, true} {
		want := f.EndToEnd
		if trace {
			want = f.PerLayer
		}
		_, got := runShort(t, workload, 3, trace)
		if len(got) != 4 || got["correct"] != true || got["failed"] != 0.0 || got["attempted"].(float64) < 1 {
			t.Errorf("trace=%v: result %v", trace, got)
		}
		metrics := got["metrics"].(map[string]any)
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json lists %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			v, ok := metrics[m.Name].(map[string]any)
			if !ok || v["unit"] != m.Unit {
				t.Errorf("trace=%v: metric %s with unit %s not printed (got %v)", trace, m.Name, m.Unit, v)
			}
		}
	}
}

// TestGuardsRepeat runs the traced workloads twice at one seed: the exact
// counts they print as guards — CG iterations, halo messages, Allreduce
// calls, chunks per pull — must repeat exactly.
func TestGuardsRepeat(t *testing.T) {
	for _, w := range []string{"fig1-fabric", "viz-serve", "remote-solve"} {
		t.Run(w, func(t *testing.T) {
			guards := func() []string {
				lines, _ := runShort(t, w, 5, true)
				var g []string
				for _, l := range lines {
					if strings.HasPrefix(l, "guard ") {
						g = append(g, l)
					}
				}
				return g
			}
			first, second := guards(), guards()
			if len(first) == 0 || strings.HasSuffix(first[0], " = 0") {
				t.Errorf("run too short to fill the guard window: %v", first)
			}
			if strings.Join(first, "\n") != strings.Join(second, "\n") {
				t.Errorf("guards differ between runs:\n%v\n%v", first, second)
			}
		})
	}
}
