package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"trilist/internal/degseq"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", e2eDefs, bf.EndToEnd)
	check("per_layer", layerDefs, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command has %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// toy shrinks a workload to seconds: small graphs, few probes.
func toy(w workload) workload {
	w.registerProbes = min(w.registerProbes, 3)
	w.graph.N = 2000
	if w.graph.Trunc == degseq.RootTruncation {
		w.graph.N = 4000
	}
	w.listLimit = 500
	return w
}

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, against a freshly built trid and checks that every answer
// was right and every named metric was printed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds trid and runs all workloads")
	}
	dir := t.TempDir()
	trid := filepath.Join(dir, "trid")
	if out, err := exec.Command("go", "build", "-o", trid, "trilist/cmd/trid").CombinedOutput(); err != nil {
		t.Fatalf("building trid: %v\n%s", err, out)
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b := newBench(toy(w), 7, 1, trid, dir)
			res, err := execute(b, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d errors=%v", w.name, traced, res.Attempted, res.Failed, res.Errors)
			}
			names := bf.EndToEnd
			if traced {
				names = bf.PerLayer
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s traced=%v: printed %d metrics, want %d", w.name, traced, len(res.Metrics), len(names))
			}
			for _, m := range names {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if traced && !(res.Metrics["trace.coverage"].Value > 0) {
				t.Errorf("%s: trace.coverage = %v", w.name, res.Metrics["trace.coverage"].Value)
			}
		}
	}
}
