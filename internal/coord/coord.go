// Package coord is the multi-node half of partitioned triangle
// listing: a coordinator that partitions the oriented graph once,
// ships the whole partition set to a fleet of trid worker nodes, and
// fans the O(P³) independent block-triple passes across them over
// HTTP — the Kolountzakis et al. decomposition (PAPERS.md), with the
// paper's cost model pricing each triple so the biggest passes are
// issued first and no single straggler dominates the makespan.
//
// The RPC layer rides on internal/exec, so the multi-node schedule
// inherits the single-machine executor's semantics wholesale: bounded
// retry with deadline-aware backoff, per-task timeouts, speculative
// straggler re-issue (to a *different* node, via the untried-node
// preference in pick), first-completion-wins, and strict in-order
// commit on the coordinator's goroutine. Partial TripleResults are
// merged in the protocol-fixed triple-lexicographic order, so the
// final Result — triangle sequence, Stats, and logical I/O meters —
// is byte-identical to a single-machine extmem.Run at any node count.
//
// Node failure is a scheduling event, not a job failure: a node that
// accumulates DeathAfter consecutive errors is marked dead, and every
// retry or speculative copy of its outstanding triples is dispatched
// to the survivors. Only when no live node remains does the job fail —
// and then with the committed prefix's meters exactly matching the
// serial schedule's prefix, per exec's full-prefix-commit guarantee.
package coord

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/listing"
	"trilist/internal/stats"
)

// Worker API paths, shared with internal/server's handlers.
const (
	// TriplePath executes one block-triple pass against a cached
	// partition set (POST, TripleRequest body, TripleResult response).
	TriplePath = "/v1/internal/triple"
	// SetPathPrefix is the partition-set resource root: PUT
	// SetPathPrefix+id registers a set (TRBLKS1 payload), DELETE drops it.
	SetPathPrefix = "/v1/internal/partitions/"
)

// TripleRequest asks a worker to run one block-triple pass against a
// previously registered partition set.
type TripleRequest struct {
	// Set is the content hash of the partition-set payload (the ID the
	// coordinator registered it under).
	Set string `json:"set"`
	// Parts is the effective partition count; workers cross-check it
	// against the registered set.
	Parts int `json:"parts"`
	A     int `json:"a"`
	B     int `json:"b"`
	C     int `json:"c"`
	// CountOnly asks for the pass's counters without its triangles. It
	// is set for every triple of a run without a visitor (a count job),
	// never by a user.
	CountOnly bool `json:"count_only,omitempty"`
}

// maxTripleRespBytes bounds a worker's triple response; a worker that
// streams more than this is broken or hostile, not listing triangles.
const maxTripleRespBytes = 1 << 30

// Event kinds for the coordinator's telemetry stream.
type EventKind string

const (
	// KindShip: one partition-set payload was registered on a node
	// (Bytes = payload size). Re-ships after a worker cache miss emit
	// the same kind.
	KindShip EventKind = "ship"
	// KindTask: one remote triple execution finished (Status ok/error).
	KindTask EventKind = "task"
	// KindRedispatch: a retry or speculative copy went to a node that
	// had not yet executed that triple — the cross-node re-issue path.
	KindRedispatch EventKind = "redispatch"
	// KindNodeDown: a node crossed the consecutive-failure threshold
	// and was removed from scheduling.
	KindNodeDown EventKind = "node_down"
)

// Event is one coordinator telemetry record. Emitted from worker
// goroutines; hooks must be concurrency-safe and must not call back
// into the coordinator.
type Event struct {
	Kind   EventKind
	Node   string
	Status string // "ok" or "error", for KindTask
	Bytes  int64  // payload size, for KindShip
	Err    error
}

// Options configures a coordinated run.
type Options struct {
	// Peers lists worker base URLs ("http://host:port"); at least one
	// is required. A local run is extmem.Run's job, not the
	// coordinator's.
	Peers []string
	// Client issues the worker RPCs; nil uses http.DefaultClient.
	// Tests inject fault-injecting transports here.
	Client *http.Client
	// Workers bounds concurrent triple dispatches. Defaults to twice
	// the node count (RPC fan-out is network-bound, not CPU-bound).
	Workers int
	// MaxAttempts bounds executions per triple; defaults to
	// max(3, nodes+1) so a single node death can never exhaust a
	// triple's budget before a survivor sees it.
	MaxAttempts int
	// Backoff is the deadline-aware sleep before the first retry,
	// doubling per retry (capped inside internal/exec); defaults to
	// 10ms.
	Backoff time.Duration
	// TaskTimeout bounds each remote execution; expired attempts are
	// retried (and count against the node's health).
	TaskTimeout time.Duration
	// Speculate enables straggler re-issue of the longest-in-flight
	// triple, preferring a node that has not run it.
	Speculate bool
	// DeathAfter is the consecutive-failure threshold that marks a
	// node dead; below 1 means 3.
	DeathAfter int
	// OnEvent taps coordinator telemetry (ships, per-node task
	// completions, re-dispatches, node deaths).
	OnEvent func(Event)
	// ExecEvents taps the underlying executor's event stream — the
	// same hook trid wires to its trid_exec_* metrics for local runs.
	ExecEvents func(exec.Event)
}

// Report describes how a coordinated run was scheduled — telemetry,
// not results; nothing in it feeds the deterministic Result.
type Report struct {
	// Nodes is the fleet size at start; Alive is what remained.
	Nodes int `json:"nodes"`
	Alive int `json:"alive"`
	// BytesShipped totals partition-set payload bytes sent, including
	// re-ships.
	BytesShipped int64 `json:"bytes_shipped"`
	// Redispatches counts executions sent to a node after another node
	// had already been tried for the same triple.
	Redispatches int64 `json:"redispatches"`
	// TasksByNode counts successful remote executions per node
	// (duplicates from speculation included — this meters node work,
	// not commits).
	TasksByNode map[string]int64 `json:"tasks_by_node,omitempty"`
	// TaskDurations aggregates remote execution wall times: per-node
	// samples merged with stats.Sample.Merge in node order.
	TaskDurations stats.Sample `json:"-"`
}

var (
	// errNoLiveNodes permanently fails a triple: every node is dead, so
	// no retry can help. exec commits the full prefix first.
	errNoLiveNodes = errors.New("coord: no live worker nodes")
	// errBadRequest marks a worker 4xx other than 404 — a protocol bug,
	// not a transient fault; retrying the same request cannot succeed.
	errBadRequest = errors.New("coord: worker rejected request")
)

// Run lists all triangles of the oriented graph with P partitions
// across the fleet in opts.Peers, reporting each triangle once
// (x < y < z) to visit in the same deterministic order as extmem.Run.
// A nil visit only counts: workers return each pass's counters, not its
// triangles. The returned Result is byte-identical to a single-machine
// run at any node count; the Report describes scheduling (ships,
// re-dispatches, node health). On permanent failure the Result holds
// the exact committed prefix of the serial schedule.
func Run(ctx context.Context, o *digraph.Oriented, parts int, visit listing.Visitor, opts Options) (extmem.Result, Report, error) {
	var res extmem.Result
	var rep Report
	if err := ctx.Err(); err != nil {
		return res, rep, err
	}
	n := o.NumNodes()
	if parts < 1 {
		return res, rep, fmt.Errorf("coord: need at least one partition, got %d", parts)
	}
	c := newCluster(opts)
	rep.Nodes = len(c.nodes)
	if rep.Nodes == 0 {
		return res, rep, errors.New("coord: no peers: a coordinated run needs at least one worker node")
	}
	parts = extmem.ClampParts(parts, n)
	if n == 0 {
		return res, rep, nil
	}
	countOnly := visit == nil

	store := extmem.NewMemStore()
	defer store.Close()
	written, err := extmem.Partition(o, parts, store)
	res.IO.ArcsWritten = written
	if err != nil {
		return res, rep, err
	}
	blocks := store.Blocks()

	payload, err := extmem.EncodeBlocks(parts, blocks)
	if err != nil {
		return res, rep, err
	}
	c.payload = payload
	c.setID = fmt.Sprintf("%x", sha256.Sum256(payload))
	if err := c.registerAll(ctx); err != nil {
		c.fillReport(&rep)
		return res, rep, err
	}

	triples := extmem.Triples(parts)
	workers := opts.Workers
	if workers < 1 {
		workers = 2 * len(c.nodes)
	}

	execErr := exec.Run(ctx, len(triples),
		func(tctx context.Context, idx int) (extmem.TripleResult, error) {
			tr := triples[idx]
			nd, err := c.pick(idx)
			if err != nil {
				return extmem.TripleResult{}, err
			}
			t0 := time.Now()
			out, cerr := c.callTriple(tctx, nd, TripleRequest{
				Set: c.setID, Parts: parts, A: tr[0], B: tr[1], C: tr[2], CountOnly: countOnly,
			})
			c.finish(nd, cerr, tctx, time.Since(t0))
			return out, cerr
		},
		func(idx int, tr extmem.TripleResult) { res.Commit(tr, visit) },
		exec.Options{
			Workers:     workers,
			MaxAttempts: c.maxAttempts,
			Backoff:     c.backoff,
			TaskTimeout: opts.TaskTimeout,
			Speculate:   opts.Speculate,
			IsRetryable: func(err error) bool {
				return !errors.Is(err, errNoLiveNodes) && !errors.Is(err, errBadRequest)
			},
			OnEvent:    opts.ExecEvents,
			IssueOrder: costOrder(triples, blocks),
		})

	if ctx.Err() == nil {
		c.cleanup()
	}
	c.fillReport(&rep)
	return res, rep, execErr
}

// costOrder prices every triple with the read-volume proxy for the
// paper's eq. (50) pass cost — the arcs loaded from blocks (b,a),
// (c,b), (c,a), which also bounds the merge sweep's comparisons — and
// schedules the most expensive first (ties broken by index, so the
// order is deterministic). Largest-first bounds makespan skew: the
// giant same-partition triples of a skewed degree sequence start while
// the long tail of cheap passes can still fill the fleet behind them.
func costOrder(triples [][3]int, blocks map[[2]int][]Arc) []int {
	weights := make([]int64, len(triples))
	for i, tr := range triples {
		a, b, c := tr[0], tr[1], tr[2]
		weights[i] = int64(len(blocks[[2]int{b, a}])) +
			int64(len(blocks[[2]int{c, b}])) +
			int64(len(blocks[[2]int{c, a}]))
	}
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return weights[order[x]] > weights[order[y]]
	})
	return order
}

// Arc aliases extmem.Arc so costOrder's signature stays local.
type Arc = extmem.Arc

// node is one worker's scheduling state, guarded by cluster.mu.
type node struct {
	base        string
	inflight    int
	consecFails int
	dead        bool
	tasks       int64
	durations   stats.Sample
}

type cluster struct {
	client      *http.Client
	deathAfter  int
	maxAttempts int
	backoff     time.Duration
	onEvent     func(Event)

	setID   string
	payload []byte

	mu           sync.Mutex
	nodes        []*node
	tried        map[int]map[int]bool // task index -> node index -> attempted
	bytesShipped int64
	redispatches int64
}

func newCluster(opts Options) *cluster {
	c := &cluster{
		client:      opts.Client,
		deathAfter:  opts.DeathAfter,
		maxAttempts: opts.MaxAttempts,
		backoff:     opts.Backoff,
		onEvent:     opts.OnEvent,
		tried:       make(map[int]map[int]bool),
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.deathAfter < 1 {
		c.deathAfter = 3
	}
	for _, p := range opts.Peers {
		p = strings.TrimSpace(strings.TrimSuffix(p, "/"))
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		c.nodes = append(c.nodes, &node{base: p})
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = max(3, len(c.nodes)+1)
	}
	if c.backoff == 0 {
		c.backoff = 10 * time.Millisecond
	}
	return c
}

func (c *cluster) emit(ev Event) {
	if c.onEvent != nil {
		c.onEvent(ev)
	}
}

// pick chooses the node for one execution of task idx: live nodes
// only, preferring nodes that have not yet tried this triple (so
// retries and speculative copies cross node boundaries), then least
// in-flight, then fleet order. Returns errNoLiveNodes when every node
// is dead — a permanent failure for the run.
func (c *cluster) pick(idx int) (*node, error) {
	c.mu.Lock()
	var best *node
	bestID := -1
	bestUntried := false
	for id, nd := range c.nodes {
		if nd.dead {
			continue
		}
		untried := !c.tried[idx][id]
		switch {
		case best == nil,
			untried && !bestUntried,
			untried == bestUntried && nd.inflight < best.inflight:
			best, bestID, bestUntried = nd, id, untried
		}
	}
	if best == nil {
		c.mu.Unlock()
		return nil, errNoLiveNodes
	}
	redispatch := len(c.tried[idx]) > 0 && bestUntried
	if c.tried[idx] == nil {
		c.tried[idx] = make(map[int]bool)
	}
	c.tried[idx][bestID] = true
	best.inflight++
	if redispatch {
		c.redispatches++
	}
	c.mu.Unlock()
	if redispatch {
		c.emit(Event{Kind: KindRedispatch, Node: best.base})
	}
	return best, nil
}

// finish settles one execution's effect on node health. Errors caused
// by the run's own teardown (tctx cancelled, not expired) are nobody's
// fault; every other error is a strike, and DeathAfter consecutive
// strikes kill the node.
func (c *cluster) finish(nd *node, taskErr error, tctx context.Context, d time.Duration) {
	abandoned := taskErr != nil && errors.Is(tctx.Err(), context.Canceled)
	var events []Event
	c.mu.Lock()
	nd.inflight--
	switch {
	case taskErr == nil:
		nd.consecFails = 0
		nd.tasks++
		nd.durations.Add(d.Seconds())
		events = append(events, Event{Kind: KindTask, Node: nd.base, Status: "ok"})
	case abandoned:
		// Run winding down; not a health signal.
	default:
		nd.consecFails++
		events = append(events, Event{Kind: KindTask, Node: nd.base, Status: "error", Err: taskErr})
		if !nd.dead && nd.consecFails >= c.deathAfter {
			nd.dead = true
			events = append(events, Event{Kind: KindNodeDown, Node: nd.base, Err: taskErr})
		}
	}
	c.mu.Unlock()
	for _, ev := range events {
		c.emit(ev)
	}
}

// registerAll ships the partition set to every node in parallel, with
// the same bounded deadline-aware retry the triple RPCs get. Nodes
// that cannot be registered are dead on arrival; the run proceeds as
// long as one node holds the set.
func (c *cluster) registerAll(ctx context.Context) error {
	var wg sync.WaitGroup
	for id := range c.nodes {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nd := c.nodes[id]
			var err error
			for attempt := 1; attempt <= c.maxAttempts; attempt++ {
				if err = c.ship(ctx, nd); err == nil {
					return
				}
				if ctx.Err() != nil {
					break
				}
				if attempt < c.maxAttempts && c.backoff > 0 {
					t := time.NewTimer(min(c.backoff<<(attempt-1), time.Second))
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
			}
			c.mu.Lock()
			nd.dead = true
			c.mu.Unlock()
			c.emit(Event{Kind: KindNodeDown, Node: nd.base, Err: err})
		}(id)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nd := range c.nodes {
		if !nd.dead {
			return nil
		}
	}
	return fmt.Errorf("coord: registering partition set: %w", errNoLiveNodes)
}

// ship PUTs the partition-set payload to one node.
func (c *cluster) ship(ctx context.Context, nd *node) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, nd.base+SetPathPrefix+c.setID, bytes.NewReader(c.payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coord: node %s: register set: HTTP %d", nd.base, resp.StatusCode)
	}
	c.mu.Lock()
	c.bytesShipped += int64(len(c.payload))
	c.mu.Unlock()
	c.emit(Event{Kind: KindShip, Node: nd.base, Bytes: int64(len(c.payload))})
	return nil
}

// errUnknownSet marks a worker 404: it does not hold the partition set
// (restart or cache eviction). callTriple re-ships and retries once.
var errUnknownSet = errors.New("coord: worker does not hold partition set")

// callTriple runs one triple on one node, transparently re-shipping
// the partition set if the worker lost it (LRU eviction, restart) —
// the one fault that is provably fixable in-line rather than by
// retrying elsewhere.
func (c *cluster) callTriple(ctx context.Context, nd *node, tr TripleRequest) (extmem.TripleResult, error) {
	out, err := c.doTriple(ctx, nd, tr)
	if errors.Is(err, errUnknownSet) {
		if serr := c.ship(ctx, nd); serr != nil {
			return extmem.TripleResult{}, fmt.Errorf("re-registering set on %s: %w", nd.base, serr)
		}
		out, err = c.doTriple(ctx, nd, tr)
	}
	return out, err
}

func (c *cluster) doTriple(ctx context.Context, nd *node, tr TripleRequest) (extmem.TripleResult, error) {
	var out extmem.TripleResult
	body, err := json.Marshal(tr)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nd.base+TriplePath, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return out, errUnknownSet
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return out, fmt.Errorf("%w: node %s: HTTP %d: %s", errBadRequest, nd.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return out, fmt.Errorf("node %s: HTTP %d: %s", nd.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxTripleRespBytes+1))
	if err != nil {
		return out, err
	}
	if len(data) > maxTripleRespBytes {
		return out, fmt.Errorf("node %s: triple response exceeds %d bytes", nd.base, maxTripleRespBytes)
	}
	out, err = decodeTriple(data, tr.CountOnly)
	if err != nil {
		return out, fmt.Errorf("node %s: triple (%d,%d,%d): %w", nd.base, tr.A, tr.B, tr.C, err)
	}
	return out, nil
}

// errInconsistent marks a triple response whose counters are missing
// or contradict each other. It is a node fault, not a protocol bug:
// the pass is retried on another node and the answering node takes a
// strike, so a corrupt or wrong-build worker can never commit a
// miscount.
var errInconsistent = errors.New("inconsistent triple response")

// decodeTriple decodes a worker's triple response and validates it
// against the request mode. The count must be present (a worker that
// predates the field omits it); a listing response's count must equal
// its triangle list length; a count-only response carries no
// triangles; no meter is negative.
func decodeTriple(data []byte, countOnly bool) (extmem.TripleResult, error) {
	var wire struct {
		extmem.TripleResult
		// Count shadows the embedded field so an absent key is visible.
		Count *int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return extmem.TripleResult{}, fmt.Errorf("decoding triple response: %w", err)
	}
	out := wire.TripleResult
	if wire.Count == nil {
		return extmem.TripleResult{}, fmt.Errorf("%w: no count (worker from another build?)", errInconsistent)
	}
	out.Count = *wire.Count
	switch {
	case countOnly && len(out.Triangles) > 0:
		return extmem.TripleResult{}, fmt.Errorf("%w: count-only response carries %d triangles", errInconsistent, len(out.Triangles))
	case !countOnly && out.Count != int64(len(out.Triangles)):
		return extmem.TripleResult{}, fmt.Errorf("%w: count %d but %d triangles", errInconsistent, out.Count, len(out.Triangles))
	case out.Count < 0 || out.Comparisons < 0 || out.IO.ArcsRead < 0 || out.IO.BlockReads < 0:
		return extmem.TripleResult{}, fmt.Errorf("%w: invalid meters count=%d comparisons=%d io=%+v", errInconsistent, out.Count, out.Comparisons, out.IO)
	}
	return out, nil
}

// cleanup drops the partition set from every live node, best-effort
// with a short deadline: worker caches are LRU-bounded, so a missed
// delete costs memory until eviction, not correctness.
func (c *cluster) cleanup() {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	c.mu.Lock()
	targets := make([]*node, 0, len(c.nodes))
	for _, nd := range c.nodes {
		if !nd.dead {
			targets = append(targets, nd)
		}
	}
	c.mu.Unlock()
	for _, nd := range targets {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, nd.base+SetPathPrefix+c.setID, nil)
			if err != nil {
				return
			}
			if resp, err := c.client.Do(req); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
				resp.Body.Close()
			}
		}(nd)
	}
	wg.Wait()
}

// fillReport snapshots scheduling telemetry. Per-node duration samples
// are merged with stats.Sample.Merge in fleet order — the same
// protocol-fixed fold the Monte-Carlo engine uses for its shards.
func (c *cluster) fillReport(rep *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep.BytesShipped = c.bytesShipped
	rep.Redispatches = c.redispatches
	rep.TasksByNode = make(map[string]int64, len(c.nodes))
	for _, nd := range c.nodes {
		if !nd.dead {
			rep.Alive++
		}
		rep.TasksByNode[nd.base] = nd.tasks
		rep.TaskDurations.Merge(nd.durations)
	}
}
