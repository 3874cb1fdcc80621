package main

import (
	"context"
	"strings"
	"testing"

	"trilist/internal/coord"
	"trilist/internal/degseq"
	"trilist/internal/extmem"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/server"
	"trilist/internal/stats"
)

func toyOracle(t *testing.T) *oracle {
	t.Helper()
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(alpha), 400, degseq.LinearTruncation, stats.NewRNGFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(relabel(g, stats.NewRNGFromSeed(9)))
	if err != nil {
		t.Fatal(err)
	}
	return or
}

func TestOracleCount(t *testing.T) {
	or := toyOracle(t)
	ref, err := or.reference(listing.T1, order.KindDescending)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Triangles == 0 {
		t.Fatal("toy graph has no triangles")
	}
	v := server.JobView{ID: "job-1", Method: "T1", Order: "descending", Triangles: ref.Triangles, ModelOps: ref.ModelOps()}
	if err := or.checkCount(v); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	wrong := v
	wrong.Triangles++
	if err := or.checkCount(wrong); err == nil {
		t.Fatal("wrong triangle count accepted")
	}
	wrong = v
	wrong.ModelOps--
	if err := or.checkCount(wrong); err == nil {
		t.Fatal("wrong model ops accepted")
	}
}

func TestOracleList(t *testing.T) {
	or := toyOracle(t)
	d, err := or.oriented(order.KindDescending)
	if err != nil {
		t.Fatal(err)
	}
	var tris [][3]int32
	if _, err := listing.RunCtx(context.Background(), d, listing.E1, func(x, y, z int32) {
		if len(tris) < 20 {
			tris = append(tris, [3]int32{x, y, z})
		}
	}); err != nil {
		t.Fatal(err)
	}
	v := server.JobView{ID: "job-2", Mode: "list", Method: "E1", Order: "descending",
		Triangles: 25, Truncated: true, TriangleList: tris}
	if err := or.checkList(v, 20); err != nil {
		t.Fatalf("correct list rejected: %v", err)
	}

	// A triple whose vertices are not pairwise adjacent.
	bad := v
	bad.TriangleList = append([][3]int32(nil), tris...)
	n := int32(d.NumNodes())
	for z := n - 1; z >= 2; z-- {
		if !d.HasArc(z, 1) {
			bad.TriangleList[3] = [3]int32{0, 1, z}
			break
		}
	}
	if err := or.checkList(bad, 20); err == nil || !strings.Contains(err.Error(), "not a triangle") {
		t.Fatalf("non-triangle accepted (err=%v)", err)
	}
	// A real triangle out of x<y<z order.
	bad.TriangleList[3] = [3]int32{tris[3][2], tris[3][1], tris[3][0]}
	if err := or.checkList(bad, 20); err == nil {
		t.Fatal("unordered triple accepted")
	}
	// A triangle listed twice.
	bad.TriangleList[3] = tris[4]
	if err := or.checkList(bad, 20); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate accepted (err=%v)", err)
	}
	// Too few triples for the limit.
	short := v
	short.TriangleList = tris[:19]
	if err := or.checkList(short, 20); err == nil {
		t.Fatal("short list accepted")
	}
}

func TestCheckCoord(t *testing.T) {
	ref := extmem.Result{Triangles: 10, Passes: 120, IO: extmem.IOStats{ArcsWritten: 5, ArcsRead: 7, BlockReads: 3}, Comparisons: 40}
	io := ref.IO
	v := server.JobView{
		ID: "job-3", Triangles: 10, Passes: 120, IO: &io, Coord: &coord.Report{Nodes: 2, Alive: 2},
		ModelOps: listing.Stats{Method: listing.E2, Triangles: 10, Comparisons: 40}.ModelOps(),
	}
	if err := checkCoord(v, ref); err != nil {
		t.Fatalf("matching coordinated job rejected: %v", err)
	}
	wrong := v
	wrong.Triangles--
	if err := checkCoord(wrong, ref); err == nil {
		t.Fatal("wrong coordinated count accepted")
	}
	wrong = v
	wrong.Coord = nil
	if err := checkCoord(wrong, ref); err == nil {
		t.Fatal("job that was not coordinated accepted")
	}
}
