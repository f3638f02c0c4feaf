package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchFile is the schema half of BENCHMARK.json the tests compare
// against.
type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	bf := loadBenchFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range catalog {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, catalog %v", names, want)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the benchmark emits %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		if d := e2eMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s/%s, benchmark emits %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the benchmark emits %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s/%s, benchmark emits %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// refPath is the reference-kernel binary TestMain builds.
var refPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vgasperf-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	refPath = filepath.Join(dir, "vgasperf-ref")
	build := exec.Command("go", "build", "-o", refPath, "./refkernel")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func quickConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.01, trace: trace, quick: true,
		root: "..", spans: filepath.Join(t.TempDir(), "spans.json"), refPath: refPath,
	}
}

// lastLine returns the final line of the run's output.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// TestQuickRunsEmitEveryMetric runs every workload small in both modes
// and checks the result line: exactly the contract's keys, a correct
// run, and every metric BENCHMARK.json names for the mode, with its unit.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	bf := loadBenchFile(t)
	for _, wl := range catalog {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, wl.name, trace)
			var out bytes.Buffer
			if _, err := run(cfg, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, trace, err, out.String())
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lastLine(out.String())), &top); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", wl.name, trace, err)
			}
			var keys []string
			for k := range top {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace=%v: result keys %s", wl.name, trace, got)
			}
			var res result
			if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			type nameUnit struct{ Name, Unit string }
			var want []nameUnit
			if trace {
				for _, m := range bf.PerLayer {
					want = append(want, nameUnit{m.Name, m.Unit})
				}
			} else {
				for _, m := range bf.EndToEnd {
					want = append(want, nameUnit{m.Name, m.Unit})
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, got.Value)
				}
				if !strings.Contains(out.String(), "name="+m.Name+" ") {
					t.Errorf("%s trace=%v: report does not print %s", wl.name, trace, m.Name)
				}
			}
			if trace {
				b, err := os.ReadFile(cfg.spans)
				if err != nil {
					t.Fatalf("%s: span file: %v", wl.name, err)
				}
				var chrome struct {
					TraceEvents []chromeSpan `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("%s: span file holds %d events (err %v)", wl.name, len(chrome.TraceEvents), err)
				}
			}
		}
	}
}

// TestChecksFire feeds each correctness check of each workload a wrong
// expected value and requires the run to fail naming that check.
func TestChecksFire(t *testing.T) {
	wantChecks := map[string][]string{
		"go-oneside": {"go-oneside.get_matches_put", "go-oneside.puts_acked", "go-oneside.pump_runs", "go-oneside.coalesced_runs"},
		"des-storm": {"des-storm.hops", "des-storm.parcels_run", "des-storm.potatoes_dead",
			"des-storm.fingerprint_repeats", "des-storm.fingerprint_traced"},
		"des-tenants": {"des-tenants.ops_completed", "des-tenants.ops_issued", "des-tenants.reliable_abandoned",
			"des-tenants.unacked_end", "des-tenants.policy_attempts", "des-tenants.policy_moves_migrated",
			"des-tenants.fingerprint_repeats", "des-tenants.fingerprint_traced"},
	}
	for _, wl := range catalog {
		res, err := run(quickConfig(t, wl.name, true), &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: unperturbed run failed: %v", wl.name, err)
		}
		var evaluated []string
		for name := range res.checked {
			evaluated = append(evaluated, name)
		}
		sort.Strings(evaluated)
		want := append([]string(nil), wantChecks[wl.name]...)
		sort.Strings(want)
		if strings.Join(evaluated, ",") != strings.Join(want, ",") {
			t.Errorf("%s evaluates checks %v, test covers %v", wl.name, evaluated, want)
		}
		for _, name := range want {
			cfg := quickConfig(t, wl.name, true)
			cfg.perturb = name
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: perturbing %s gave error %v", wl.name, name, err)
			}
			if res.Correct || !strings.Contains(lastLine(out.String()), `"correct":false`) {
				t.Errorf("%s: perturbing %s still reports correct", wl.name, name)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	s := &spans{list: []span{
		{name: "bench.round", start: 0, end: 100, parent: -1},
		{name: "runtime.put_phase", start: 10, end: 60, parent: 0},
		{name: "runtime.stats", start: 20, end: 30, parent: 1},
		{name: "coalesce.flushall", start: 70, end: 90, parent: 0},
	}}
	got := s.selfTimes()
	want := map[string]int64{"bench": 30, "runtime": 50, "coalesce": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestReferenceKernel checks that the kernel cpu_cost_per_op is measured
// against answers, that a run fails without it, and that each workload
// runs with its own GOMAXPROCS and pinning, as the host line records,
// and leaves the process's CPU affinity as it found it.
func TestReferenceKernel(t *testing.T) {
	k, err := startRef(refPath)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := k.nsPerEvent(1 << 16)
	if err != nil || ns <= 0 {
		t.Errorf("reference kernel: %v ns/event, error %v", ns, err)
	}
	if err := k.close(); err != nil {
		t.Errorf("reference kernel exit: %v", err)
	}
	cfg := quickConfig(t, "des-storm", false)
	cfg.refPath = filepath.Join(t.TempDir(), "missing")
	if _, err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Error("run without a reference kernel succeeded")
	}
	mask, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range catalog {
		var out bytes.Buffer
		if _, err := run(quickConfig(t, wl.name, false), &out); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if want := fmt.Sprintf(" gomaxprocs=%d ", wl.procs()); !strings.Contains(out.String(), want) {
			t.Errorf("%s: host line lacks%s", wl.name, want)
		}
		if pinned := !strings.Contains(out.String(), " pinned_cpu=-1 "); pinned != wl.des {
			t.Errorf("%s: pinned %v, want %v", wl.name, pinned, wl.des)
		}
		if m, err := getAffinity(); err != nil || m != mask {
			t.Errorf("%s: affinity after the run %x (error %v), before %x", wl.name, m, err, mask)
		}
	}
}
