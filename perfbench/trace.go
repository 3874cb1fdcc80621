package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trilist/internal/coord"
	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
)

// traceReps is how many times the traced run repeats each layer call;
// per-layer figures are medians over the repetitions.
const traceReps = 3

// span is one timed call into a layer. Spans of one replayed operation
// share a trace ID; Parent is 0 for an operation's root span.
type span struct {
	Trace  string    `json:"trace"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// SelfMS is the span's duration minus its children's, filled in
	// when the spans are written.
	SelfMS float64 `json:"self_ms"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	spans []span
	trace string
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	sp := &t.spans[id-1]
	sp.End = time.Now()
	return ms(sp.End.Sub(sp.Start))
}

// selfTimes fills in SelfMS for every span.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].SelfMS = ms(t.spans[i].End.Sub(t.spans[i].Start))
	}
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			t.spans[sp.Parent-1].SelfMS -= ms(sp.End.Sub(sp.Start))
		}
	}
}

func (t *tracer) write(path string) error {
	t.selfTimes()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hashSink keeps the traced hash from being optimized away.
var hashSink string

// layers collects per-layer samples by metric name.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layers) median(name string) float64 { return Summarize(l[name]).Median }

// replay calls each layer's public functions in-process on the
// workload's inputs, with spans around every call, and returns the
// per-layer samples. Coordinated workloads call coord.Run against the
// running worker processes, so replay runs before teardown.
func (b *bench) replay(t *tracer) (layers, error) {
	l := layers{}
	p, err := planner.Compute(b.ref.g, planner.WithWorkers(inprocWorkers))
	if err != nil {
		return nil, err
	}
	best := p.Best()
	for rep := 0; rep < traceReps; rep++ {
		t.trace = fmt.Sprintf("%s-seed%d-rep%d", b.w.name, b.seed, rep)
		runtime.GC()
		g, err := b.replayRegister(t, l)
		if err != nil {
			return nil, err
		}
		if err := b.replayFirstJob(t, l, g, best, p.Kernel); err != nil {
			return nil, err
		}
		if err := b.replaySweeps(t, l, best, p.Kernel); err != nil {
			return nil, err
		}
		if b.w.coordinated {
			if err := b.replayCoord(t, l); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// replayRegister retraces POST /v1/graphs: parse, hash, plan, persist.
func (b *bench) replayRegister(t *tracer, l layers) (*graph.Graph, error) {
	root := t.begin("op.register", 0)
	sp := t.begin("ingest.parse", root)
	g, _, err := ingest.Parse(b.body, ingest.FormatAuto, ingest.Options{Workers: inprocWorkers})
	parse := t.end(sp)
	if err != nil {
		return nil, err
	}
	l.add("ingest.parse_ms", parse)
	l.add("ingest.parse_mb_per_s", float64(len(b.body))/1e6/(parse/1e3))
	l.add("ingest.edges", float64(g.NumEdges()))

	sp = t.begin("server.hash", root)
	sum := sha256.Sum256(b.body)
	hashSink = "sha256:" + hex.EncodeToString(sum[:])
	l.add("server.hash_ms", t.end(sp))

	sp = t.begin("planner.compute", root)
	_, err = planner.Compute(g, planner.WithWorkers(inprocWorkers))
	l.add("planner.compute_ms", t.end(sp))
	if err != nil {
		return nil, err
	}

	if b.w.csrDir {
		path := filepath.Join(b.out, "tmp", fmt.Sprintf("trace-%d.csrf", os.Getpid()))
		sp = t.begin("csrfile.write", root)
		err = csrfile.WriteFile(path, g)
		l.add("csrfile.write_ms", t.end(sp))
		_ = os.Remove(path)
		if err != nil {
			return nil, err
		}
	}
	t.end(root)
	return g, nil
}

// replayFirstJob retraces a graph's first job: rank and orient on the
// registry miss, then the list sweep up to the workload's limit.
func (b *bench) replayFirstJob(t *tracer, l layers, g *graph.Graph, best planner.Candidate, kp planner.KernelPlan) error {
	root := t.begin("op.first_job", 0)
	sp := t.begin("order.rank", root)
	rank, err := order.Rank(g, best.Order, nil, order.WithWorkers(inprocWorkers))
	l.add("order.rank_ms", t.end(sp))
	if err != nil {
		return err
	}
	sp = t.begin("digraph.orient", root)
	d, err := digraph.OrientOwned(g, rank, digraph.WithWorkers(inprocWorkers))
	l.add("digraph.orient_ms", t.end(sp))
	if err != nil {
		return err
	}
	// The sweep stops at the limit as trid's list jobs do: by
	// cancelling its own context from the visitor.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	found := 0
	visit := func(x, y, z int32) {
		if found++; found == b.w.listLimit {
			cancel()
		}
	}
	sp = t.begin("listing.list_limit", root)
	_, err = listing.RunCtx(ctx, d, best.Method, visit, kernelOpts(best.Method, kp)...)
	l.add("listing.list_limit_ms", t.end(sp))
	if err != nil && ctx.Err() == nil {
		return err
	}
	t.end(root)
	return nil
}

// kernelOpts is the kernel a planner-driven job of method m runs with.
func kernelOpts(m listing.Method, kp planner.KernelPlan) []listing.Option {
	if m.Family() != listing.ScanningEdgeIterator {
		return []listing.Option{listing.WithKernel(listing.KernelAuto)}
	}
	return []listing.Option{listing.WithKernel(kp.Kernel), listing.WithCoreThreshold(kp.CoreThreshold)}
}

// replaySweeps times full sweeps: the planner's pair against the
// paper's four recommended pairs, and E1/θ_D under every kernel.
func (b *bench) replaySweeps(t *tracer, l layers, best planner.Candidate, kp planner.KernelPlan) error {
	root := t.begin("op.sweeps", 0)
	sweep := func(name string, m listing.Method, k order.Kind, workers int, opts ...listing.Option) (listing.Stats, float64, error) {
		d, err := b.ref.oriented(k)
		if err != nil {
			return listing.Stats{}, 0, err
		}
		// Collect the garbage of earlier calls now, so no sweep pays for
		// it in its own time.
		runtime.GC()
		sp := t.begin(name, root)
		st, err := listing.RunParallelCtx(context.Background(), d, m, workers, nil, opts...)
		return st, t.end(sp), err
	}
	st, chosen, err := sweep("listing.planned.w1", best.Method, best.Order, 1, kernelOpts(best.Method, kp)...)
	if err != nil {
		return err
	}
	l.add("listing.planned.w1_ms", chosen)
	l.add("planner.predicted_actual_ratio", best.Total/float64(st.ModelOps()))
	fastest := chosen
	for _, c := range []struct {
		m listing.Method
		k order.Kind
	}{{listing.T1, order.KindDescending}, {listing.T2, order.KindRoundRobin}, {listing.E1, order.KindDescending}, {listing.E4, order.KindCRR}} {
		name := fmt.Sprintf("listing.%s.%s.w1", c.m, c.k)
		_, d, err := sweep(name, c.m, c.k, 1, listing.WithKernel(listing.KernelAuto))
		if err != nil {
			return err
		}
		fastest = min(fastest, d)
		if c.m == listing.T1 {
			l.add("listing.T1.w1_ms", d)
		}
	}
	l.add("planner.time_regret", chosen/fastest)
	for _, k := range listing.Kernels {
		st, d, err := sweep(fmt.Sprintf("listing.E1.%s.w1", k), listing.E1, order.KindDescending, 1, listing.WithKernel(k))
		if err != nil {
			return err
		}
		l.add(fmt.Sprintf("listing.E1.%s.w1_ms", k), d)
		if k == listing.KernelAuto {
			l.add("listing.model_ops", float64(st.ModelOps()))
			l.add("listing.mops_per_s", float64(st.ModelOps())/1e6/(d/1e3))
		}
	}
	_, d, err := sweep("listing.E1.auto.w2", listing.E1, order.KindDescending, 2, listing.WithKernel(listing.KernelAuto))
	if err != nil {
		return err
	}
	l.add("listing.E1.auto.w2_ms", d)
	t.end(root)
	return nil
}

// replayCoord times the partitioned path: the local extmem stages, then
// coord.Run against the workload's two worker processes.
func (b *bench) replayCoord(t *tracer, l layers) error {
	d, err := b.ref.oriented(order.KindDescending)
	if err != nil {
		return err
	}
	parts := extmem.ClampParts(coordParts, d.NumNodes())
	root := t.begin("op.partitioned_local", 0)
	store := extmem.NewMemStore()
	sp := t.begin("extmem.partition", root)
	_, err = extmem.Partition(d, parts, store)
	l.add("extmem.partition_ms", t.end(sp))
	if err != nil {
		return err
	}
	sp = t.begin("extmem.encode", root)
	payload, err := extmem.EncodeBlocks(parts, store.Blocks())
	l.add("extmem.encode_ms", t.end(sp))
	if err != nil {
		return err
	}
	l.add("extmem.wire_bytes", float64(len(payload)))
	sp = t.begin("extmem.decode", root)
	_, _, err = extmem.DecodeBlocks(payload)
	l.add("extmem.decode_ms", t.end(sp))
	if err != nil {
		return err
	}
	sp = t.begin("extmem.run", root)
	res, err := extmem.Run(context.Background(), d, parts, extmem.NewMemStore(), nil,
		extmem.WithWorkers(inprocWorkers), extmem.WithSpeculation())
	local := t.end(sp)
	if err != nil {
		return err
	}
	l.add("extmem.run_ms", local)
	l.add("extmem.passes", float64(res.Passes))
	t.end(root)

	var (
		mu                          sync.Mutex
		attempts, retries, reissued int
		taskMS                      []float64
	)
	onEvent := func(ev exec.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Status {
		case exec.StatusReissued:
			reissued++
			return
		case exec.StatusRetry:
			retries++
		case exec.StatusOK:
			taskMS = append(taskMS, ms(ev.Duration))
		}
		attempts++
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	ct := &countingTransport{rt: tr}
	var peers []string
	for _, p := range b.procs[1:] {
		peers = append(peers, p.url)
	}
	root = t.begin("op.coordinated", 0)
	sp = t.begin("coord.run", root)
	cres, rep, err := coord.Run(context.Background(), d, coordParts, nil, coord.Options{
		Peers: peers, Client: &http.Client{Transport: ct}, Workers: coordWorkers, Speculate: true, ExecEvents: onEvent,
	})
	run := t.end(sp)
	t.end(root)
	if err != nil {
		return err
	}
	if cres != res {
		return fmt.Errorf("coord.Run result %+v differs from local extmem.Run %+v", cres, res)
	}
	l.add("coord.run_ms", run)
	l.add("coord.overhead_ratio", run/local)
	l.add("coord.bytes_shipped", float64(rep.BytesShipped))
	l.add("coord.response_bytes", float64(ct.n.Load()))
	l.add("coord.task_p50_ms", Summarize(taskMS).Median)
	l.add("exec.attempts", float64(attempts))
	l.add("exec.retries", float64(retries))
	l.add("exec.reissued", float64(reissued))
	l.add("exec.useful_ratio", float64(cres.Passes)/float64(attempts))
	return nil
}

// countingTransport counts the response body bytes of every request.
type countingTransport struct {
	rt http.RoundTripper
	n  atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
