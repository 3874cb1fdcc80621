package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"trilist/internal/digraph"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/server"
)

// inprocWorkers is the parallelism of in-process reference work and of
// the traced layer calls: trid's default on a 2-CPU host.
const inprocWorkers = 2

// oracle holds the reference answers for one graph body. It parses the
// body exactly as trid does, so node IDs and relabeled labels agree with
// what trid reports.
type oracle struct {
	id      string // content hash trid must assign
	g       *graph.Graph
	orients map[order.Kind]*digraph.Oriented
	stats   map[[2]int]listing.Stats // by (method, order)
	// triangles is the graph's triangle count; < 0 until known.
	triangles int64
}

func newOracle(body []byte) (*oracle, error) {
	g, _, err := ingest.Parse(body, ingest.FormatAuto, ingest.Options{Workers: inprocWorkers})
	if err != nil {
		return nil, fmt.Errorf("oracle: parsing: %w", err)
	}
	sum := sha256.Sum256(body)
	return &oracle{
		id:        "sha256:" + hex.EncodeToString(sum[:]),
		g:         g,
		orients:   make(map[order.Kind]*digraph.Oriented),
		stats:     make(map[[2]int]listing.Stats),
		triangles: -1,
	}, nil
}

func (o *oracle) oriented(k order.Kind) (*digraph.Oriented, error) {
	if d, ok := o.orients[k]; ok {
		return d, nil
	}
	rank, err := order.Rank(o.g, k, nil, order.WithWorkers(inprocWorkers))
	if err != nil {
		return nil, err
	}
	d, err := digraph.OrientOwned(o.g, rank, digraph.WithWorkers(inprocWorkers))
	if err != nil {
		return nil, err
	}
	o.orients[k] = d
	return d, nil
}

// reference returns the exact Stats of a full (method, order) sweep.
func (o *oracle) reference(m listing.Method, k order.Kind) (listing.Stats, error) {
	key := [2]int{int(m), int(k)}
	if st, ok := o.stats[key]; ok {
		return st, nil
	}
	d, err := o.oriented(k)
	if err != nil {
		return listing.Stats{}, err
	}
	st, err := listing.RunParallelCtx(context.Background(), d, m, inprocWorkers, nil)
	if err != nil {
		return st, err
	}
	o.stats[key] = st
	o.triangles = st.Triangles
	return st, nil
}

// total returns the graph's triangle count.
func (o *oracle) total() (int64, error) {
	if o.triangles < 0 {
		if _, err := o.reference(listing.E1, order.KindDescending); err != nil {
			return 0, err
		}
	}
	return o.triangles, nil
}

// planned returns the (method, order) pair trid's planner picks.
func (o *oracle) planned() (listing.Method, order.Kind, error) {
	p, err := planner.Compute(o.g, planner.WithWorkers(inprocWorkers))
	if err != nil {
		return 0, 0, err
	}
	return p.Best().Method, p.Best().Order, nil
}

// checkRegister verifies the reply to registering bytes the daemon has
// not seen before, as every registration the benchmark makes is.
func (o *oracle) checkRegister(info graphInfo) error {
	if info.ID != o.id || info.Nodes != o.g.NumNodes() || info.Edges != o.g.NumEdges() || info.Cached {
		return fmt.Errorf("register: got id=%s nodes=%d edges=%d cached=%v, want id=%s nodes=%d edges=%d cached=false",
			info.ID, info.Nodes, info.Edges, info.Cached, o.id, o.g.NumNodes(), o.g.NumEdges())
	}
	return nil
}

// checkCount compares a finished full-sweep job with the in-process
// sweep of the same (method, order).
func (o *oracle) checkCount(v server.JobView) error {
	m, k, err := methodOrder(v)
	if err != nil {
		return err
	}
	ref, err := o.reference(m, k)
	if err != nil {
		return err
	}
	if v.Triangles != ref.Triangles || v.ModelOps != ref.ModelOps() {
		return fmt.Errorf("job %s (%s/%s): triangles=%d model_ops=%d, want %d and %d",
			v.ID, v.Method, v.Order, v.Triangles, v.ModelOps, ref.Triangles, ref.ModelOps())
	}
	return nil
}

// checkList verifies a limit-stopped list job: it lists min(limit,
// total) distinct triples, each a triangle x<y<z of the job's
// orientation in relabeled IDs, and counts no more triangles than the
// graph has (a stopped sweep counts up to its next checkpoint).
func (o *oracle) checkList(v server.JobView, limit int) error {
	_, k, err := methodOrder(v)
	if err != nil {
		return err
	}
	total, err := o.total()
	if err != nil {
		return err
	}
	want := min(int64(limit), total)
	if int64(len(v.TriangleList)) != want || v.Triangles < want || v.Triangles > total || v.Truncated != (want < total) {
		return fmt.Errorf("list job %s: listed=%d triangles=%d truncated=%v, want %d listed of %d",
			v.ID, len(v.TriangleList), v.Triangles, v.Truncated, want, total)
	}
	d, err := o.oriented(k)
	if err != nil {
		return err
	}
	seen := make(map[[3]int32]struct{}, len(v.TriangleList))
	n := int32(d.NumNodes())
	for _, t := range v.TriangleList {
		x, y, z := t[0], t[1], t[2]
		if !(0 <= x && x < y && y < z && z < n) || !d.HasArc(z, y) || !d.HasArc(z, x) || !d.HasArc(y, x) {
			return fmt.Errorf("list job %s: %v is not a triangle x<y<z of the %s orientation", v.ID, t, k)
		}
		if _, dup := seen[t]; dup {
			return fmt.Errorf("list job %s: triangle %v listed twice", v.ID, t)
		}
		seen[t] = struct{}{}
	}
	return nil
}

// checkCoord compares a coordinated partitioned job with a local
// extmem.Run of the same orientation and partition count.
func checkCoord(v server.JobView, ref extmem.Result) error {
	modelOps := listing.Stats{Method: listing.E2, Triangles: ref.Triangles, Comparisons: ref.Comparisons}.ModelOps()
	if v.Coord == nil || v.IO == nil || v.Triangles != ref.Triangles || v.Passes != ref.Passes ||
		*v.IO != ref.IO || v.ModelOps != modelOps {
		return fmt.Errorf("coordinated job %s: triangles=%d passes=%d io=%+v model_ops=%d coord=%v, want %d, %d, %+v, %d from a local run",
			v.ID, v.Triangles, v.Passes, v.IO, v.ModelOps, v.Coord != nil, ref.Triangles, ref.Passes, ref.IO, modelOps)
	}
	return nil
}

// methodOrder resolves the method and order names a job reports.
func methodOrder(v server.JobView) (listing.Method, order.Kind, error) {
	m, ok := methodByName(v.Method)
	if !ok {
		return 0, 0, fmt.Errorf("job %s: unknown method %q", v.ID, v.Method)
	}
	for _, k := range order.Kinds {
		if k.String() == v.Order {
			return m, k, nil
		}
	}
	return 0, 0, fmt.Errorf("job %s: unknown order %q", v.ID, v.Order)
}

func methodByName(s string) (listing.Method, bool) {
	for _, m := range listing.Methods {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}
