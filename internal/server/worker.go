package server

import (
	"container/list"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"trilist/internal/coord"
	"trilist/internal/extmem"
)

// readJSON decodes a bounded, strict JSON request body.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Worker API: the internal surface a trid instance exposes so a
// coordinator (internal/coord) can use it as a remote block-triple
// executor.
//
//	PUT    /v1/internal/partitions/{id}  register a partition set (TRBLKS1 payload)
//	POST   /v1/internal/triple           run one block-triple pass (TripleRequest)
//	DELETE /v1/internal/partitions/{id}  drop a partition set
//
// Partition sets are cached in a byte-budgeted LRU keyed by the
// coordinator's content hash, so a fleet-wide job registers each set
// once per node and every triple RPC afterwards pays only the pass.
// The payload decoder is the hostile-input-hardened extmem.DecodeBlocks
// — this is a network surface, even if an internal one.

// partitionSet is one cached, ready-to-sweep partition set.
type partitionSet struct {
	id    string
	parts int
	store *extmem.MemStore
	bytes int64
	elem  *list.Element
}

// setCache is the byte-budgeted LRU of partition sets.
type setCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *partitionSet
	byID   map[string]*partitionSet
	m      *serverMetrics
}

func newSetCache(budget int64, m *serverMetrics) *setCache {
	return &setCache{budget: budget, lru: list.New(), byID: make(map[string]*partitionSet), m: m}
}

// get returns a set and marks it recently used.
func (c *setCache) get(id string) (*partitionSet, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps, ok := c.byID[id]
	if ok {
		c.lru.MoveToFront(ps.elem)
	}
	return ps, ok
}

// put inserts a set (idempotent per id — re-registration of resident
// content is a cache hit) and evicts LRU sets to stay under budget.
// Returns whether the identical id was already resident.
func (c *setCache) put(ps *partitionSet) (cached bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byID[ps.id]; ok {
		c.lru.MoveToFront(old.elem)
		return true
	}
	c.used += ps.bytes
	ps.elem = c.lru.PushFront(ps)
	c.byID[ps.id] = ps
	for c.used > c.budget && c.lru.Len() > 1 {
		c.evictOldestLocked()
	}
	c.updateGaugesLocked()
	return false
}

func (c *setCache) evictOldestLocked() {
	elem := c.lru.Back()
	if elem == nil {
		return
	}
	ps := elem.Value.(*partitionSet)
	c.lru.Remove(elem)
	delete(c.byID, ps.id)
	c.used -= ps.bytes
	_ = ps.store.Close()
	if c.m != nil {
		c.m.workerSetEvictions.Inc()
	}
}

// drop removes a set by id; reports whether it was resident.
func (c *setCache) drop(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps, ok := c.byID[id]
	if !ok {
		return false
	}
	c.lru.Remove(ps.elem)
	delete(c.byID, id)
	c.used -= ps.bytes
	_ = ps.store.Close()
	c.updateGaugesLocked()
	return true
}

func (c *setCache) updateGaugesLocked() {
	if c.m == nil {
		return
	}
	c.m.workerSets.Set(int64(c.lru.Len()))
	c.m.workerSetBytes.Set(c.used)
}

// setInfo is the response of PUT /v1/internal/partitions/{id}.
type setInfo struct {
	ID     string `json:"id"`
	Parts  int    `json:"parts"`
	Blocks int    `json:"blocks"`
	Arcs   int64  `json:"arcs"`
	// Cached is true when the identical set was already resident.
	Cached bool `json:"cached"`
}

// handleWorkerRegisterSet decodes and caches a partition set under the
// coordinator-chosen id. Registration is draining-gated like graph
// registration; triple execution against already-resident sets keeps
// serving so an in-flight coordinated job can finish its passes.
func (s *Server) handleWorkerRegisterSet(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "empty partition set id")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading partition set: %v", err)
		return
	}
	if int64(len(body)) > s.opts.PartitionSetBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"partition set of %d bytes exceeds the node's %d-byte budget", len(body), s.opts.PartitionSetBytes)
		return
	}
	parts, blocks, err := extmem.DecodeBlocks(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	store := extmem.NewMemStore()
	if err := extmem.LoadBlocks(store, blocks); err != nil {
		_ = store.Close()
		writeError(w, http.StatusInternalServerError, "loading partition set: %v", err)
		return
	}
	var arcs int64
	for _, b := range blocks {
		arcs += int64(len(b))
	}
	ps := &partitionSet{id: id, parts: parts, store: store, bytes: int64(len(body))}
	cached := s.sets.put(ps)
	if cached {
		// The resident copy stays; this decode was redundant work.
		_ = store.Close()
	}
	writeJSON(w, http.StatusOK, setInfo{
		ID: id, Parts: parts, Blocks: len(blocks), Arcs: arcs, Cached: cached,
	})
}

// handleWorkerTriple executes one block-triple pass against a cached
// partition set and returns the TripleResult — triangle count,
// comparisons and the logical I/O meters of exactly this pass, plus the
// triangles themselves unless the request is count-only — which the
// coordinator commits in schedule order. 404 tells the coordinator the
// set is gone (evicted or never shipped here) so it can re-register.
func (s *Server) handleWorkerTriple(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		// 5xx, not 4xx: the coordinator treats it as transient and moves
		// the pass to another node.
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req coord.TripleRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding triple request: %v", err)
		return
	}
	ps, ok := s.sets.get(req.Set)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown partition set %q", req.Set)
		return
	}
	if req.Parts != ps.parts {
		writeError(w, http.StatusBadRequest, "set %q has %d parts, request says %d", req.Set, ps.parts, req.Parts)
		return
	}
	if req.A < 0 || req.A > req.B || req.B > req.C || req.C >= ps.parts {
		writeError(w, http.StatusBadRequest, "invalid triple (%d,%d,%d) for %d parts", req.A, req.B, req.C, ps.parts)
		return
	}
	res, err := extmem.RunTriple(r.Context(), ps.store, req.A, req.B, req.C, !req.CountOnly)
	if err != nil {
		// Context errors (client gone, coordinator timeout) land here;
		// the store itself cannot fail. 503 keeps it retry-classified.
		writeError(w, http.StatusServiceUnavailable, "triple (%d,%d,%d): %v", req.A, req.B, req.C, err)
		return
	}
	if s.metrics != nil {
		s.metrics.workerTriples.Inc()
	}
	writeJSON(w, http.StatusOK, res)
}

// handleWorkerDeleteSet drops a partition set — the coordinator's
// best-effort cleanup after a job.
func (s *Server) handleWorkerDeleteSet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sets.drop(id) {
		writeError(w, http.StatusNotFound, "unknown partition set %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}
