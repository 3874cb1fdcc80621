package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trilist/internal/experiments"
)

func tinyArgs(table string) []string {
	return []string{
		"-table", table,
		"-sizes", "1500,3000",
		"-seqs", "1", "-graphs", "1",
		"-surrogate", "5000",
		"-seed", "3",
	}
}

func TestExperimentsTable6(t *testing.T) {
	var out strings.Builder
	if err := run(tinyArgs("6"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 6") || !strings.Contains(s, "T1+θ_D") {
		t.Fatalf("output incomplete:\n%s", s)
	}
}

func TestExperimentsTable12(t *testing.T) {
	var out strings.Builder
	if err := run(tinyArgs("12"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 12") {
		t.Fatalf("output incomplete:\n%s", out.String())
	}
}

func TestExperimentsCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(append(tinyArgs("12"), "-csv", dir), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table12.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "method") || !strings.Contains(string(data), "T1") {
		t.Fatalf("CSV incomplete:\n%s", data)
	}
}

func TestExperimentsScalingCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-table", "scaling", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scaling.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cost/a_n") || !strings.Contains(string(data), "cost/b_n") {
		t.Fatalf("scaling CSV incomplete:\n%s", data)
	}
}

// stripTimings drops wall-clock lines so runs are comparable.
func stripTimings(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "computed in") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestExperimentsWorkerDeterminism(t *testing.T) {
	// The -workers flag must never change table content: byte-identical
	// output (timing lines aside) for workers 1, 2 and 8.
	for _, table := range []string{"6", "11", "12", "scaling"} {
		t.Run("table"+table, func(t *testing.T) {
			var want string
			for _, workers := range []string{"1", "2", "8"} {
				var out strings.Builder
				args := append(tinyArgs(table), "-workers", workers)
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				got := stripTimings(out.String())
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("-workers %s output differs:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}

func TestExperimentsPlanner(t *testing.T) {
	dir := t.TempDir()
	benchOut := filepath.Join(dir, "BENCH_planner.json")
	args := func(extra ...string) []string {
		return append([]string{"-table", "planner", "-n", "1500", "-seed", "3",
			"-planner-out", benchOut}, extra...)
	}
	var out strings.Builder
	if err := run(args("-csv", dir), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Planner validation", "predicted-best", "wrote "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(benchOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema": "`+experiments.PlannerSchema+`"`) {
		t.Fatalf("bench JSON missing schema:\n%s", data)
	}
	if _, err := os.ReadFile(filepath.Join(dir, "planner.csv")); err != nil {
		t.Fatal(err)
	}

	// Everything in the document is deterministic: gating a rerun against
	// its own output passes, at any worker count.
	out.Reset()
	if err := run(args("-planner-baseline", benchOut, "-workers", "3"), &out); err != nil {
		t.Fatalf("self-gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "planner baseline gate passed") {
		t.Fatalf("missing pass message:\n%s", out.String())
	}

	// A perturbed measured_ops is a hard failure — no timing tolerance.
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	row := doc["rows"].([]any)[0].(map[string]any)
	row["measured_ops"] = row["measured_ops"].(float64) + 1
	drifted, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "drifted.json")
	if err := os.WriteFile(bad, drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run(args("-planner-baseline", bad), &out)
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("drifted baseline accepted: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "MISPREDICTION DRIFT:") {
		t.Fatalf("missing drift lines:\n%s", out.String())
	}
}

func TestExperimentsUnknownTable(t *testing.T) {
	var out strings.Builder
	// Removed tables must fail loudly, so a stale script notices.
	for _, table := range []string{"99", "pipeline", "kernels"} {
		err := run(tinyArgs(table), &out)
		if err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Fatalf("-table %s: got %v, want unknown table", table, err)
		}
	}
	if err := run([]string{"-scale", "galactic"}, &out); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-sizes", "12,abc"}, &out); err == nil {
		t.Fatal("bad sizes accepted")
	}
}
