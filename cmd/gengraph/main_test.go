package main

import (
	"os"
	"path/filepath"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest"
)

func genTo(t *testing.T, args ...string) *graph.Graph {
	t.Helper()
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := run(append(args, "-out", out)); err != nil {
		t.Fatal(err)
	}
	return load(t, out)
}

// load reads a generated file in whichever format it was written.
func load(t *testing.T, path string) *graph.Graph {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ingest.Parse(data, ingest.FormatAuto, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateResidual(t *testing.T) {
	g := genTo(t, "-n", "2000", "-alpha", "1.5", "-trunc", "root", "-seed", "5")
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := g.MaxDegree(); m*m > 2000 {
		t.Fatalf("max degree %d violates root truncation", m)
	}
}

func TestGenerateAllGenerators(t *testing.T) {
	for _, gen := range []string{"residual", "config", "chunglu"} {
		g := genTo(t, "-n", "1000", "-alpha", "2.0", "-gen", gen, "-seed", "9")
		if g.NumNodes() != 1000 || g.NumEdges() == 0 {
			t.Fatalf("%s: n=%d m=%d", gen, g.NumNodes(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
	}
}

func TestGenerateNetworkModels(t *testing.T) {
	ba := genTo(t, "-n", "1000", "-gen", "ba", "-k", "2", "-seed", "4")
	if ba.NumEdges() != int64(3+2*(1000-3)) {
		t.Fatalf("BA m = %d", ba.NumEdges())
	}
	ws := genTo(t, "-n", "500", "-gen", "ws", "-k", "3", "-rewire", "0.2", "-seed", "4")
	if ws.NumEdges() != 1500 {
		t.Fatalf("WS m = %d", ws.NumEdges())
	}
	if err := run([]string{"-n", "3", "-gen", "ba", "-k", "5"}); err == nil {
		t.Fatal("BA with n < k+1 accepted")
	}
	if err := run([]string{"-n", "5", "-gen", "ws", "-k", "3"}); err == nil {
		t.Fatal("WS with n < 2k+1 accepted")
	}
}

func TestGenerateErdosRenyi(t *testing.T) {
	g := genTo(t, "-n", "500", "-gen", "er", "-m", "1200", "-seed", "3")
	if g.NumEdges() != 1200 {
		t.Fatalf("m = %d, want 1200", g.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTo(t, "-n", "800", "-alpha", "1.7", "-seed", "42")
	b := genTo(t, "-n", "800", "-alpha", "1.7", "-seed", "42")
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := a.EdgeSlice(), b.EdgeSlice()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestGenerateBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	bin := filepath.Join(dir, "g.bin")
	if err := run([]string{"-n", "600", "-alpha", "1.7", "-seed", "8", "-out", txt}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "600", "-alpha", "1.7", "-seed", "8", "-format", "binary", "-out", bin}); err != nil {
		t.Fatal(err)
	}
	gt, gb := load(t, txt), load(t, bin)
	if gt.NumEdges() != gb.NumEdges() || gt.NumNodes() != gb.NumNodes() {
		t.Fatalf("text %d/%d vs binary %d/%d",
			gt.NumNodes(), gt.NumEdges(), gb.NumNodes(), gb.NumEdges())
	}
	if err := run([]string{"-n", "10", "-format", "weird", "-out", filepath.Join(dir, "x")}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run([]string{"-n", "0"}); err == nil {
		t.Error("n=0 accepted")
	}
	if err := run([]string{"-n", "10", "-gen", "er"}); err == nil {
		t.Error("er without -m accepted")
	}
	if err := run([]string{"-n", "10", "-gen", "unknown"}); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := run([]string{"-n", "10", "-trunc", "weird"}); err == nil {
		t.Error("unknown truncation accepted")
	}
	if err := run([]string{"-n", "10", "-alpha", "0.9"}); err == nil {
		t.Error("alpha <= 1 without explicit beta accepted")
	}
	// alpha <= 1 works with explicit beta.
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := run([]string{"-n", "500", "-alpha", "0.9", "-beta", "5", "-trunc", "root", "-out", out}); err != nil {
		t.Errorf("alpha=0.9 with beta rejected: %v", err)
	}
}
