// The distributed determinism wall: the coordinated lister must emit
// the exact triangle sequence and meter-for-meter identical Result of
// a single-machine extmem.Run at any node count, with the triangle set
// cross-checked against brute force on the undirected graph. The wall
// runs real trid worker instances (httptest, full handler stack) so
// the bytes on the wire are the bytes production would see.
package coord_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trilist/internal/coord"
	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/extmem"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/server"
	"trilist/internal/stats"
)

// wallGraph is one workload: the undirected graph, its
// descending-degree rank, and the oriented digraph the lister consumes.
type wallGraph struct {
	name string
	g    *graph.Graph
	rank []int32
	o    *digraph.Oriented
}

func wallGraphs(t *testing.T) []wallGraph {
	t.Helper()
	var out []wallGraph
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rank, err := order.Rank(g, order.KindDescending, nil)
		if err != nil {
			t.Fatalf("%s rank: %v", name, err)
		}
		o, err := digraph.Orient(g, rank)
		if err != nil {
			t.Fatalf("%s orient: %v", name, err)
		}
		out = append(out, wallGraph{name: name, g: g, rank: rank, o: o})
	}
	er, err := gen.ErdosRenyi(150, 1600, stats.NewRNGFromSeed(7))
	add("ER", er, err)
	// Brute-force ground truth is Θ(n³); heavy-tailed graphs stay small
	// so the race detector can chew through the whole wall.
	pr, _, err := gen.ParetoGraph(degseq.StandardPareto(1.7), 400, degseq.RootTruncation, stats.NewRNGFromSeed(17))
	add("Pareto-root", pr, err)
	pl, _, err := gen.ParetoGraph(degseq.StandardPareto(2.1), 400, degseq.LinearTruncation, stats.NewRNGFromSeed(23))
	add("Pareto-linear", pl, err)
	return out
}

// bruteSet lists the graph's triangles by brute force, relabeled
// through the rank so sets are comparable with lister output.
func bruteSet(t *testing.T, wg wallGraph) map[[3]int32]bool {
	t.Helper()
	ref := make(map[[3]int32]bool)
	listing.BruteForce(wg.g, func(x, y, z int32) {
		a, b, c := wg.rank[x], wg.rank[y], wg.rank[z]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		ref[[3]int32{a, b, c}] = true
	})
	if len(ref) == 0 {
		t.Fatalf("%s has no triangles", wg.name)
	}
	return ref
}

// startWorkers boots n full trid worker instances on httptest
// listeners and returns their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			ts.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// runLocal is the single-machine reference: extmem.Run over an
// in-memory store, serial schedule.
func runLocal(t *testing.T, o *digraph.Oriented, parts int) ([][3]int32, extmem.Result) {
	t.Helper()
	store := extmem.NewMemStore()
	defer store.Close()
	var seq [][3]int32
	res, err := extmem.Run(context.Background(), o, parts, store, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
	})
	if err != nil {
		t.Fatalf("extmem.Run(parts=%d): %v", parts, err)
	}
	return seq, res
}

// runCoord runs the coordinated lister and collects the sequence.
func runCoord(t *testing.T, o *digraph.Oriented, parts int, opts coord.Options) ([][3]int32, extmem.Result, coord.Report, error) {
	t.Helper()
	var seq [][3]int32
	res, rep, err := coord.Run(context.Background(), o, parts, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
	}, opts)
	return seq, res, rep, err
}

// runMode runs the coordinated lister in one of its two modes: with a
// visitor (list jobs) collecting the sequence, or without one (count
// jobs), where workers answer with counters only and seq stays nil.
func runMode(t *testing.T, o *digraph.Oriented, parts int, list bool, opts coord.Options) ([][3]int32, extmem.Result, coord.Report, error) {
	t.Helper()
	if list {
		return runCoord(t, o, parts, opts)
	}
	res, rep, err := coord.Run(context.Background(), o, parts, nil, opts)
	return nil, res, rep, err
}

// sameSeq fails the test at the first divergence of two sequences.
func sameSeq(t *testing.T, label string, got, want [][3]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d triangles, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sequence diverges at %d: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestCoordDeterminismWall: across node counts {2, 4} × parts {2,3,5} × {ER, Pareto-root, Pareto-linear} × {list,
// count-only}, every Result meter is byte-identical to the
// single-machine run, the listed triangle sequence is too, and the
// triangle set matches brute force on the undirected graph.
func TestCoordDeterminismWall(t *testing.T) {
	for _, wg := range wallGraphs(t) {
		t.Run(wg.name, func(t *testing.T) {
			ref := bruteSet(t, wg)
			peers := startWorkers(t, 4)
			for _, parts := range []int{2, 3, 5} {
				baseSeq, baseRes := runLocal(t, wg.o, parts)
				if baseRes.Triangles != int64(len(ref)) {
					t.Fatalf("parts=%d: serial run found %d triangles, brute force %d", parts, baseRes.Triangles, len(ref))
				}
				seen := make(map[[3]int32]bool, len(baseSeq))
				for _, tri := range baseSeq {
					if seen[tri] || !ref[tri] {
						t.Fatalf("parts=%d: serial triangle %v duplicated or not in brute-force set", parts, tri)
					}
					seen[tri] = true
				}
				for _, nodes := range []int{2, 4} {
					for _, list := range []bool{true, false} {
						cell := fmt.Sprintf("parts=%d nodes=%d list=%v", parts, nodes, list)
						seq, res, rep, err := runMode(t, wg.o, parts, list, coord.Options{
							Peers: peers[:nodes],
						})
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if res != baseRes {
							t.Errorf("%s: Result %+v != single-machine %+v", cell, res, baseRes)
						}
						if list {
							sameSeq(t, cell, seq, baseSeq)
						}
						if rep.Nodes != nodes || rep.Alive != nodes {
							t.Errorf("%s: report fleet %d alive %d", cell, rep.Nodes, rep.Alive)
						}
						triples := int64(len(extmem.Triples(extmem.ClampParts(parts, wg.o.NumNodes()))))
						var tasks int64
						for _, v := range rep.TasksByNode {
							tasks += v
						}
						// No faults, no speculation: every pass ran remotely
						// exactly once.
						if tasks != triples {
							t.Errorf("%s: %d remote tasks, want %d", cell, tasks, triples)
						}
						if rep.TaskDurations.N() != triples {
							t.Errorf("%s: duration sample n=%d, want %d", cell, rep.TaskDurations.N(), triples)
						}
						if rep.BytesShipped == 0 {
							t.Errorf("%s: no bytes shipped", cell)
						}
					}
				}
			}
		})
	}
}

// TestCoordSpeculativeDeterminism: cross-node straggler re-issue
// (Speculate, high fan-out, tiny backoff) must not change a single
// byte of the output — first-completion-wins plus in-order commit hide
// duplicates entirely.
func TestCoordSpeculativeDeterminism(t *testing.T) {
	wg := wallGraphs(t)[0]
	peers := startWorkers(t, 2)
	baseSeq, baseRes := runLocal(t, wg.o, 5)
	for run := 0; run < 3; run++ {
		seq, res, _, err := runCoord(t, wg.o, 5, coord.Options{
			Peers:     peers,
			Workers:   16,
			Speculate: true,
			Backoff:   time.Millisecond,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res != baseRes {
			t.Errorf("run %d: Result %+v != single-machine %+v", run, res, baseRes)
		}
		sameSeq(t, "speculative", seq, baseSeq)
	}
}

// TestCoordDegenerateInputs: parts below 1 is an error; an empty graph
// returns a zero Result without touching the network; parts above n is
// clamped, matching the single-machine contract.
func TestCoordDegenerateInputs(t *testing.T) {
	wg := wallGraphs(t)[0]
	if _, _, _, err := runCoord(t, wg.o, 0, coord.Options{}); err == nil {
		t.Fatal("parts=0 accepted")
	}
	// A coordinator without workers has nothing to run on; blank peer
	// entries do not count as workers.
	for _, peers := range [][]string{nil, {" ", ""}} {
		if _, _, _, err := runCoord(t, wg.o, 3, coord.Options{Peers: peers}); err == nil || !strings.Contains(err.Error(), "no peers") {
			t.Fatalf("peers %q: err = %v, want a no-peers error", peers, err)
		}
	}

	eg, err := graph.FromEdges(0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := digraph.Orient(eg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, res, _, err := runCoord(t, empty, 3, coord.Options{
		Peers: []string{"http://127.0.0.1:0"}, // never dialed
	})
	if err != nil || res.Triangles != 0 || len(seq) != 0 {
		t.Fatalf("empty graph: res=%+v seq=%d err=%v", res, len(seq), err)
	}

	// Clamping parts above n: a tiny graph keeps the pass count small
	// (parts clamps to n, and the triple count is cubic in parts).
	small, err := gen.ErdosRenyi(10, 30, stats.NewRNGFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rank, err := order.Rank(small, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	so, err := digraph.Orient(small, rank)
	if err != nil {
		t.Fatal(err)
	}
	peers := startWorkers(t, 2)
	_, baseRes := runLocal(t, so, 3)
	seq, res, _, err = runCoord(t, so, 50, coord.Options{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != baseRes.Triangles {
		t.Fatalf("clamped parts: %d triangles, want %d", res.Triangles, baseRes.Triangles)
	}
}

// TestCoordEventStream: a clean 2-node run emits ship events for both
// nodes and one ok task per block triple, attributed to real peers.
func TestCoordEventStream(t *testing.T) {
	wg := wallGraphs(t)[0]
	peers := startWorkers(t, 2)
	var mu sync.Mutex
	counts := map[coord.EventKind]int{}
	nodes := map[string]bool{}
	_, _, _, err := runCoord(t, wg.o, 3, coord.Options{
		Peers: peers,
		OnEvent: func(ev coord.Event) {
			mu.Lock()
			defer mu.Unlock()
			counts[ev.Kind]++
			if ev.Node != "" {
				nodes[ev.Node] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[coord.KindShip] != 2 {
		t.Errorf("%d ship events, want 2", counts[coord.KindShip])
	}
	if want := len(extmem.Triples(3)); counts[coord.KindTask] != want {
		t.Errorf("%d task events, want %d", counts[coord.KindTask], want)
	}
	if counts[coord.KindNodeDown] != 0 || counts[coord.KindRedispatch] != 0 {
		t.Errorf("fault events on a clean run: %v", counts)
	}
	if len(nodes) != 2 {
		t.Errorf("events name %d nodes, want 2: %v", len(nodes), nodes)
	}
}

// settleGoroutines polls until the goroutine count returns near the
// baseline — the dependency-free leak check.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
