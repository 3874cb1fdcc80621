package graph_test

import (
	"bytes"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/stats"
)

// The text edge-list reader is ingest.ParseSNAP; these tests pin that
// WriteEdgeList output reads back through it unchanged.

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ingest.ParseSNAP(buf.Bytes(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || g2.NumEdges() != 4 {
		t.Fatalf("roundtrip n=%d m=%d", g2.NumNodes(), g2.NumEdges())
	}
	for _, e := range g.EdgeSlice() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("lost edge %v", e)
		}
	}
}

func TestLargeRoundTrip(t *testing.T) {
	r := stats.NewRNGFromSeed(12)
	b := graph.NewBuilder(500, true)
	for i := 0; i < 3000; i++ {
		u := int32(r.IntN(500))
		v := int32(r.IntN(500))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ingest.ParseSNAP(buf.Bytes(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip mismatch: %d/%d vs %d/%d",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}
