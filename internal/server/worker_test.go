package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"trilist/internal/coord"
	"trilist/internal/digraph"
	"trilist/internal/extmem"
	"trilist/internal/gen"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// makeSetPayload partitions a seeded ER graph and returns the encoded
// partition set plus the reference triangle count from a local
// single-machine run over the identical blocks.
func makeSetPayload(t testing.TB, seed uint64, n int, m int64, parts int) (payload []byte, triangles int64) {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := digraph.Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	store := extmem.NewMemStore()
	defer store.Close()
	res, err := extmem.Run(context.Background(), o, parts, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Run leaves the store populated only during execution; repartition
	// into a fresh store for the payload.
	ps := extmem.NewMemStore()
	defer ps.Close()
	if _, err := extmem.Partition(o, parts, ps); err != nil {
		t.Fatal(err)
	}
	payload, err = extmem.EncodeBlocks(parts, ps.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return payload, res.Triangles
}

// metricValueOr0 reads one sample value, tolerating absence: a labeled
// counter that never incremented has no exposition line at all.
func metricValueOr0(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	return 0
}

// postTriple runs one triple RPC and decodes the result on 200.
func (e *testEnv) postTriple(t testing.TB, req coord.TripleRequest) (int, extmem.TripleResult, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, out := e.do(t, "POST", coord.TriplePath, body)
	var res extmem.TripleResult
	if code == http.StatusOK {
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("bad triple JSON: %v: %s", err, out)
		}
	}
	return code, res, out
}

// TestWorkerPartitionSetLifecycle walks the whole worker surface:
// register, idempotent re-register, execute every triple (summing to
// the single-machine triangle count), every 4xx classification the
// coordinator's retry logic depends on, and delete.
func TestWorkerPartitionSetLifecycle(t *testing.T) {
	const parts = 3
	e := newTestEnv(t, Options{})
	payload, wantTriangles := makeSetPayload(t, 11, 120, 900, parts)

	code, out := e.do(t, "PUT", coord.SetPathPrefix+"wall-set", payload)
	if code != http.StatusOK {
		t.Fatalf("register set: status %d: %s", code, out)
	}
	var info setInfo
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "wall-set" || info.Parts != parts || info.Cached || info.Arcs == 0 || info.Blocks == 0 {
		t.Fatalf("bad set info: %+v", info)
	}

	// Re-registration of resident content is a cache hit, not a reload.
	code, out = e.do(t, "PUT", coord.SetPathPrefix+"wall-set", payload)
	if code != http.StatusOK {
		t.Fatalf("re-register: status %d", code)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Fatalf("re-registration not cached: %+v", info)
	}

	// Execute the full schedule in both modes; the summed triangle count
	// must equal the single-machine run — the worker serves the exact
	// same passes. Per triple, the count-only answer carries the listing
	// answer's counters and no triangles key at all.
	var got int64
	triples := extmem.Triples(parts)
	for _, tr := range triples {
		req := coord.TripleRequest{Set: "wall-set", Parts: parts, A: tr[0], B: tr[1], C: tr[2]}
		code, listed, out := e.postTriple(t, req)
		if code != http.StatusOK {
			t.Fatalf("triple %v: status %d: %s", tr, code, out)
		}
		if listed.Count != int64(len(listed.Triangles)) {
			t.Errorf("triple %v: listing count %d, %d triangles", tr, listed.Count, len(listed.Triangles))
		}
		req.CountOnly = true
		code, counted, out := e.postTriple(t, req)
		if code != http.StatusOK {
			t.Fatalf("count-only triple %v: status %d: %s", tr, code, out)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(out, &keys); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys["triangles"]; ok {
			t.Errorf("count-only triple %v: body has a triangles key: %s", tr, out)
		}
		if counted.Count != listed.Count || counted.Comparisons != listed.Comparisons || counted.IO != listed.IO {
			t.Errorf("triple %v: count-only %+v != listing counters %+v", tr, counted, listed)
		}
		got += counted.Count
	}
	if got != wantTriangles {
		t.Fatalf("remote passes found %d triangles, single-machine %d", got, wantTriangles)
	}

	// The 4xx taxonomy: 404 = set unknown (coordinator re-ships), 400 =
	// protocol error (coordinator gives up on the request).
	for name, c := range map[string]struct {
		req  coord.TripleRequest
		want int
	}{
		"unknown-set":    {coord.TripleRequest{Set: "nope", Parts: parts, A: 0, B: 0, C: 0}, http.StatusNotFound},
		"parts-mismatch": {coord.TripleRequest{Set: "wall-set", Parts: parts + 1, A: 0, B: 0, C: 0}, http.StatusBadRequest},
		"triple-order":   {coord.TripleRequest{Set: "wall-set", Parts: parts, A: 2, B: 1, C: 2}, http.StatusBadRequest},
		"triple-range":   {coord.TripleRequest{Set: "wall-set", Parts: parts, A: 0, B: 0, C: parts}, http.StatusBadRequest},
		"triple-neg":     {coord.TripleRequest{Set: "wall-set", Parts: parts, A: -1, B: 0, C: 0}, http.StatusBadRequest},
	} {
		if code, _, out := e.postTriple(t, c.req); code != c.want {
			t.Errorf("%s: status %d, want %d: %s", name, code, c.want, out)
		}
	}
	if code, out := e.do(t, "POST", coord.TriplePath, []byte(`{"set":1}`)); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d: %s", code, out)
	}
	if code, out := e.do(t, "POST", coord.TriplePath, []byte(`{"set":"wall-set","parts":3,"a":0,"b":0,"c":0,"bogus":1}`)); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d: %s", code, out)
	}
	if code, out := e.do(t, "PUT", coord.SetPathPrefix+"junk", []byte("TRBLKS1\ngarbage")); code != http.StatusBadRequest {
		t.Errorf("hostile payload: status %d: %s", code, out)
	}

	text := e.metricsText(t)
	if n := metricValue(t, text, "trid_worker_triples_total"); n != 2*int64(len(triples)) {
		t.Errorf("trid_worker_triples_total = %d, want %d", n, 2*len(triples))
	}
	if n := metricValue(t, text, "trid_worker_partition_sets"); n != 1 {
		t.Errorf("trid_worker_partition_sets = %d, want 1", n)
	}

	// Delete is idempotent in effect: first drop 200, second 404, and
	// execution against the dropped set is a 404 (re-ship signal).
	if code, _ := e.do(t, "DELETE", coord.SetPathPrefix+"wall-set", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code, _ := e.do(t, "DELETE", coord.SetPathPrefix+"wall-set", nil); code != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", code)
	}
	if code, _, _ := e.postTriple(t, coord.TripleRequest{Set: "wall-set", Parts: parts}); code != http.StatusNotFound {
		t.Errorf("triple after delete: status %d, want 404", code)
	}
	if n := metricValue(t, e.metricsText(t), "trid_worker_partition_sets"); n != 0 {
		t.Errorf("trid_worker_partition_sets = %d after delete, want 0", n)
	}
}

// TestWorkerSetCacheEviction: the byte-budgeted LRU evicts the least
// recently used set when a new registration exceeds the budget, and a
// subsequent triple against the evicted set is the coordinator-visible
// 404.
func TestWorkerSetCacheEviction(t *testing.T) {
	a, _ := makeSetPayload(t, 3, 100, 700, 2)
	b, _ := makeSetPayload(t, 5, 100, 700, 2)
	e := newTestEnv(t, Options{PartitionSetBytes: int64(len(a) + len(b)/2)})

	if code, _ := e.do(t, "PUT", coord.SetPathPrefix+"set-a", a); code != http.StatusOK {
		t.Fatalf("register a: status %d", code)
	}
	if code, _ := e.do(t, "PUT", coord.SetPathPrefix+"set-b", b); code != http.StatusOK {
		t.Fatalf("register b: status %d", code)
	}
	if code, _, _ := e.postTriple(t, coord.TripleRequest{Set: "set-a", Parts: 2}); code != http.StatusNotFound {
		t.Errorf("evicted set a: status %d, want 404", code)
	}
	if code, _, _ := e.postTriple(t, coord.TripleRequest{Set: "set-b", Parts: 2}); code != http.StatusOK {
		t.Errorf("resident set b: status %d, want 200", code)
	}
	text := e.metricsText(t)
	if n := metricValue(t, text, "trid_worker_partition_set_evictions_total"); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if n := metricValue(t, text, "trid_worker_partition_sets"); n != 1 {
		t.Errorf("resident sets = %d, want 1", n)
	}

	// A single set above the whole budget is refused outright — the
	// cache never thrashes itself empty to admit it.
	big := newTestEnv(t, Options{PartitionSetBytes: int64(len(a)) - 1})
	if code, _ := big.do(t, "PUT", coord.SetPathPrefix+"set-a", a); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget set: status %d, want 413", code)
	}
}

// TestWorkerEndpointsDrainGated: once shutdown begins, set
// registration and triple execution answer 503 — the transient class,
// so a coordinator moves the work to another node instead of failing
// the job.
func TestWorkerEndpointsDrainGated(t *testing.T) {
	const parts = 2
	e := newTestEnv(t, Options{})
	payload, _ := makeSetPayload(t, 7, 80, 400, parts)
	if code, _ := e.do(t, "PUT", coord.SetPathPrefix+"pre-drain", payload); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if code, _ := e.do(t, "PUT", coord.SetPathPrefix+"post-drain", payload); code != http.StatusServiceUnavailable {
		t.Errorf("register while draining: status %d, want 503", code)
	}
	if code, _, _ := e.postTriple(t, coord.TripleRequest{Set: "pre-drain", Parts: parts}); code != http.StatusServiceUnavailable {
		t.Errorf("triple while draining: status %d, want 503", code)
	}
}

// TestCoordinatedJobEndToEnd: a coordinator trid with two worker trids
// behind it serves a partitioned list job whose full client-visible
// payload — triangle list, count, passes, IO meters — is identical to
// the same job on a standalone instance, and both coordinator-side and
// worker-side meters account for the fan-out.
func TestCoordinatedJobEndToEnd(t *testing.T) {
	w1 := newTestEnv(t, Options{})
	w2 := newTestEnv(t, Options{})
	co := newTestEnv(t, Options{Peers: []string{w1.ts.URL, w2.ts.URL}})
	local := newTestEnv(t, Options{})

	graphText := erGraphText(t, 200, 1800, 29)
	spec := JobSpec{Mode: "list", Parts: 3, Workers: 4, Limit: 100000, Wait: true}

	refInfo := local.register(t, graphText)
	refSpec := spec
	refSpec.Graph = refInfo.ID
	code, ref := local.postJob(t, refSpec)
	if code != http.StatusOK || ref.Status != "done" {
		t.Fatalf("local job: code=%d view=%+v", code, ref)
	}
	if ref.Coord != nil {
		t.Fatalf("standalone job has a coord report: %+v", ref.Coord)
	}

	coInfo := co.register(t, graphText)
	coSpec := spec
	coSpec.Graph = coInfo.ID
	code, v := co.postJob(t, coSpec)
	if code != http.StatusOK || v.Status != "done" || v.Error != "" {
		t.Fatalf("coordinated job: code=%d view=%+v", code, v)
	}

	if v.Triangles != ref.Triangles || v.Passes != ref.Passes || v.Parts != ref.Parts {
		t.Errorf("coordinated meters diverge: %d/%d/%d vs %d/%d/%d",
			v.Triangles, v.Passes, v.Parts, ref.Triangles, ref.Passes, ref.Parts)
	}
	if v.IO == nil || ref.IO == nil || *v.IO != *ref.IO {
		t.Errorf("IO meters diverge: %+v vs %+v", v.IO, ref.IO)
	}
	if len(v.TriangleList) != len(ref.TriangleList) {
		t.Fatalf("triangle list length %d vs %d", len(v.TriangleList), len(ref.TriangleList))
	}
	for i := range v.TriangleList {
		if v.TriangleList[i] != ref.TriangleList[i] {
			t.Fatalf("triangle list diverges at %d: %v != %v", i, v.TriangleList[i], ref.TriangleList[i])
		}
	}

	if v.Coord == nil {
		t.Fatal("coordinated job view missing coord report")
	}
	if v.Coord.Nodes != 2 || v.Coord.Alive != 2 {
		t.Errorf("coord report fleet %d alive %d, want 2/2", v.Coord.Nodes, v.Coord.Alive)
	}
	if v.Coord.BytesShipped == 0 {
		t.Error("coord report: no bytes shipped")
	}
	var tasks int64
	for _, n := range v.Coord.TasksByNode {
		tasks += n
	}
	if tasks < v.Passes {
		t.Errorf("coord report tasks %d < passes %d", tasks, v.Passes)
	}

	// Coordinator-side meters: per-node and per-status task counters
	// agree, and the shipped bytes surfaced on /metrics.
	text := co.metricsText(t)
	var byNode int64
	for _, u := range []string{w1.ts.URL, w2.ts.URL} {
		byNode += metricValueOr0(text, fmt.Sprintf("trid_coord_tasks_total{node=%q}", u))
	}
	if ok := metricValue(t, text, `trid_coord_task_status_total{status="ok"}`); ok != byNode {
		t.Errorf("coord task counters disagree: by-node %d, by-status %d", byNode, ok)
	}
	if n := metricValue(t, text, "trid_coord_bytes_shipped_total"); n != v.Coord.BytesShipped {
		t.Errorf("trid_coord_bytes_shipped_total = %d, report says %d", n, v.Coord.BytesShipped)
	}

	// Worker-side meters: the fleet executed every committed pass (plus
	// any speculative duplicates).
	var workerTriples int64
	for _, w := range []*testEnv{w1, w2} {
		workerTriples += metricValue(t, w.metricsText(t), "trid_worker_triples_total")
	}
	if workerTriples < v.Passes {
		t.Errorf("workers executed %d triples, job committed %d passes", workerTriples, v.Passes)
	}
}

// TestCoordinatedJobSurvivesWorkerShutdown: a worker that begins
// draining mid-fleet is routed around — its 503s are transient to the
// coordinator — and the job still matches the standalone run.
func TestCoordinatedJobSurvivesWorkerShutdown(t *testing.T) {
	w1 := newTestEnv(t, Options{})
	w2 := newTestEnv(t, Options{})
	co := newTestEnv(t, Options{Peers: []string{w1.ts.URL, w2.ts.URL}})
	local := newTestEnv(t, Options{})

	// Drain w1 before the job: every triple aimed at it answers 503 and
	// must be re-dispatched to w2.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	graphText := erGraphText(t, 150, 1200, 31)
	refInfo := local.register(t, graphText)
	code, ref := local.postJob(t, JobSpec{Graph: refInfo.ID, Parts: 3, Wait: true})
	if code != http.StatusOK || ref.Status != "done" {
		t.Fatalf("local job: code=%d view=%+v", code, ref)
	}

	coInfo := co.register(t, graphText)
	code, v := co.postJob(t, JobSpec{Graph: coInfo.ID, Parts: 3, Wait: true})
	if code != http.StatusOK || v.Status != "done" || v.Error != "" {
		t.Fatalf("coordinated job with draining worker: code=%d view=%+v", code, v)
	}
	if v.Triangles != ref.Triangles || v.Passes != ref.Passes {
		t.Errorf("job with draining worker diverges: %d/%d vs %d/%d",
			v.Triangles, v.Passes, ref.Triangles, ref.Passes)
	}
	if v.Coord == nil || v.Coord.Alive != 1 {
		t.Fatalf("coord report %+v, want exactly one survivor", v.Coord)
	}
	if v.Coord.TasksByNode[w2.ts.URL] == 0 {
		t.Errorf("survivor executed nothing: %v", v.Coord.TasksByNode)
	}
}
