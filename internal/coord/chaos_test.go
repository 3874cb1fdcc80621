// The chaos wall: fault injection at the RPC layer. A RoundTripper
// wrapper between coordinator and real worker instances injects
// latency, 5xx bursts, connection resets, requests that hang until
// cancelled, and node death mid-job — and the output must still be
// byte-identical to the single-machine run, or, when every node dies,
// an exact prefix of it with prefix-exact meters.
package coord_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trilist/internal/coord"
	"trilist/internal/extmem"
)

// chaosRT intercepts coordinator RPCs. The hook runs before the real
// round trip and may return a synthetic response or error instead;
// handled=false forwards to the base transport untouched.
type chaosRT struct {
	base http.RoundTripper
	hook func(req *http.Request) (resp *http.Response, err error, handled bool)
}

func (c *chaosRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if resp, err, handled := c.hook(req); handled {
		return resp, err
	}
	return c.base.RoundTrip(req)
}

// synthResp fabricates a minimal response the coordinator's status
// switch can classify.
func synthResp(req *http.Request, code int, body string) *http.Response {
	return &http.Response{
		StatusCode: code,
		Status:     http.StatusText(code),
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
}

// CloseIdleConnections forwards to the base transport so tests can
// drain the connection pool's goroutines before a leak check.
func (c *chaosRT) CloseIdleConnections() {
	if ci, ok := c.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

func chaosClient(hook func(*http.Request) (*http.Response, error, bool)) *http.Client {
	// A private transport: the chaos scenarios must not share (or
	// poison) the process-wide connection pool.
	return &http.Client{Transport: &chaosRT{base: &http.Transport{}, hook: hook}}
}

// isTriple reports whether the request is a block-triple execution
// (the RPC class the chaos hooks target; registration PUTs pass
// through unless a scenario kills the whole node).
func isTriple(req *http.Request) bool {
	return req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, coord.TriplePath)
}

// TestChaosTransientFaults: a fleet where every third triple RPC gets
// a 503, every fifth a connection reset, and every fourth 2ms of extra
// latency — under speculation — still produces the byte-identical
// sequence and meters. Transient faults cost retries, never output.
func TestChaosTransientFaults(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, baseRes := runLocal(t, wg.o, 5)
	peers := startWorkers(t, 2)

	var calls atomic.Int64
	client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
		if !isTriple(req) {
			return nil, nil, false
		}
		switch n := calls.Add(1); {
		case n%3 == 0:
			return synthResp(req, http.StatusServiceUnavailable, "injected overload"), nil, true
		case n%5 == 0:
			return nil, errors.New("injected: connection reset by peer"), true
		case n%4 == 0:
			time.Sleep(2 * time.Millisecond)
		}
		return nil, nil, false
	})

	seq, res, rep, err := runCoord(t, wg.o, 5, coord.Options{
		Peers:     peers,
		Client:    client,
		Workers:   8,
		Speculate: true,
		Backoff:   time.Millisecond,
		// The deterministic fault counter can hit the same task several
		// times in a row; a generous budget keeps the test about
		// recovery, and the high death threshold keeps it about
		// transient faults rather than node loss.
		MaxAttempts: 10,
		DeathAfter:  1000,
	})
	if err != nil {
		t.Fatalf("run under transient faults: %v", err)
	}
	if res != baseRes {
		t.Errorf("Result %+v != single-machine %+v", res, baseRes)
	}
	sameSeq(t, "transient-faults", seq, baseSeq)
	if rep.Alive != 2 {
		t.Errorf("alive=%d, want 2 (transient faults must not kill nodes)", rep.Alive)
	}
	// Failed attempts retry on the untried node first, so injected
	// faults must have produced cross-node re-dispatches.
	if rep.Redispatches == 0 {
		t.Error("no re-dispatches despite injected faults")
	}
}

// TestChaosNodeDeath: one node starts refusing every RPC mid-job. The
// coordinator must mark it dead after DeathAfter consecutive failures,
// re-dispatch its outstanding triples to the survivor, and finish with
// byte-identical output.
//
// The crash is decided as each victim response comes back, not as the
// request goes out, and no failure is returned until the victim's
// earlier successes have been settled: otherwise a success admitted
// before the crash could land after the first failure and reset the
// node's strike count, and the node might never reach DeathAfter.
func TestChaosNodeDeath(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, baseRes := runLocal(t, wg.o, 5)
	peers := startWorkers(t, 2)
	victim := strings.TrimPrefix(peers[0], "http://")

	const healthy = 4 // victim triple responses that succeed
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	var victimResponses atomic.Int64
	var settled atomic.Int64 // victim successes the coordinator has counted
	allSettled := make(chan struct{})
	client := &http.Client{Transport: &chaosRT{base: base, hook: func(req *http.Request) (*http.Response, error, bool) {
		if req.URL.Host != victim || !isTriple(req) {
			return nil, nil, false
		}
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err, true
		}
		n := victimResponses.Add(1)
		if n <= healthy {
			return resp, nil, true
		}
		resp.Body.Close()
		select {
		case <-allSettled:
		case <-time.After(10 * time.Second):
			t.Error("victim's successes never settled")
		}
		return nil, errors.New("injected: node crashed"), true
	}}}

	var mu sync.Mutex
	var downNodes []string
	seq, res, rep, err := runCoord(t, wg.o, 5, coord.Options{
		Peers:   peers,
		Client:  client,
		Workers: 4,
		OnEvent: func(ev coord.Event) {
			switch {
			case ev.Kind == coord.KindNodeDown:
				mu.Lock()
				downNodes = append(downNodes, ev.Node)
				mu.Unlock()
			case ev.Kind == coord.KindTask && ev.Status == "ok" && ev.Node == peers[0]:
				if settled.Add(1) == healthy {
					close(allSettled)
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("run with node death: %v", err)
	}
	if res != baseRes {
		t.Errorf("Result %+v != single-machine %+v", res, baseRes)
	}
	sameSeq(t, "node-death", seq, baseSeq)
	if rep.Alive != 1 {
		t.Errorf("alive=%d, want 1", rep.Alive)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(downNodes) != 1 || !strings.Contains(downNodes[0], victim) {
		t.Errorf("node-down events %v, want exactly the victim %s", downNodes, victim)
	}
	if rep.Redispatches == 0 {
		t.Error("victim's outstanding triples were not re-dispatched")
	}
	if rep.TasksByNode[peers[1]] == 0 {
		t.Errorf("survivor ran no tasks: %v", rep.TasksByNode)
	}
}

// TestChaosHungNodeSpeculation: a node whose triple RPCs hang until
// cancelled (never answering, honoring request context) is drained by
// per-task timeouts and straggler re-issue to the healthy node; output
// stays byte-identical and nothing leaks.
func TestChaosHungNodeSpeculation(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, baseRes := runLocal(t, wg.o, 3)
	peers := startWorkers(t, 2)
	hung := strings.TrimPrefix(peers[0], "http://")

	client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
		if req.URL.Host != hung || !isTriple(req) {
			return nil, nil, false
		}
		<-req.Context().Done()
		return nil, req.Context().Err(), true
	})

	before := runtime.NumGoroutine()
	seq, res, rep, err := runCoord(t, wg.o, 3, coord.Options{
		Peers:       peers,
		Client:      client,
		Workers:     4,
		Speculate:   true,
		TaskTimeout: 150 * time.Millisecond,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run with hung node: %v", err)
	}
	if res != baseRes {
		t.Errorf("Result %+v != single-machine %+v", res, baseRes)
	}
	sameSeq(t, "hung-node", seq, baseSeq)
	if rep.TasksByNode[peers[0]] != 0 {
		t.Errorf("hung node completed %d tasks", rep.TasksByNode[peers[0]])
	}
	client.CloseIdleConnections()
	settleGoroutines(t, before)
}

// TestChaosAllNodesDieExactPrefix: when the whole fleet dies mid-job,
// the run fails — but the partial Result is the exact prefix of the
// serial schedule: every meter equals a local recomputation of exactly
// the committed passes, and a listing run's committed triangle
// sequence is a head of the single-machine sequence. A count-only run
// commits the same prefix count without seeing a triangle.
func TestChaosAllNodesDieExactPrefix(t *testing.T) {
	wg := wallGraphs(t)[0]
	parts := 5
	baseSeq, baseRes := runLocal(t, wg.o, parts)
	peers := startWorkers(t, 2)

	store := extmem.NewMemStore()
	defer store.Close()
	written, perr := extmem.Partition(wg.o, parts, store)
	if perr != nil {
		t.Fatal(perr)
	}

	for _, list := range []bool{true, false} {
		var calls atomic.Int64
		client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
			if !isTriple(req) {
				return nil, nil, false
			}
			if calls.Add(1) > 6 {
				return nil, errors.New("injected: fleet power loss"), true
			}
			return nil, nil, false
		})

		seq, res, rep, err := runMode(t, wg.o, parts, list, coord.Options{
			Peers:   peers,
			Client:  client,
			Workers: 4,
			Backoff: time.Millisecond,
		})
		if err == nil {
			t.Fatalf("list=%v: run survived total fleet loss", list)
		}
		if !strings.Contains(err.Error(), "no live worker nodes") {
			t.Fatalf("list=%v: unexpected failure: %v", list, err)
		}
		if rep.Alive != 0 {
			t.Errorf("list=%v: alive=%d after fleet loss", list, rep.Alive)
		}
		if res.Passes >= baseRes.Passes {
			t.Fatalf("list=%v: failed run committed all %d passes", list, res.Passes)
		}

		// The committed triangles are a strict prefix of the serial sequence.
		if list {
			sameSeq(t, "prefix", seq, baseSeq[:len(seq)])
		}

		// And the meters match a local recomputation of exactly the first
		// res.Passes triples of the protocol schedule — nothing more,
		// nothing less, nothing out of order.
		want := extmem.Result{IO: extmem.IOStats{ArcsWritten: written}}
		for _, tr := range extmem.Triples(parts)[:res.Passes] {
			out, terr := extmem.RunTriple(context.Background(), store, tr[0], tr[1], tr[2], false)
			if terr != nil {
				t.Fatal(terr)
			}
			want.Passes++
			want.Comparisons += out.Comparisons
			want.Triangles += out.Count
			want.IO.ArcsRead += out.IO.ArcsRead
			want.IO.BlockReads += out.IO.BlockReads
		}
		if res != want {
			t.Errorf("list=%v: partial Result %+v != recomputed prefix %+v", list, res, want)
		}
	}
}

// TestChaosInconsistentResponse: one triple response whose counters
// contradict each other — a listing response whose count is off by
// one, or a count-only response that carries triangles — is a node
// error, never a silent miscount: the pass takes one strike, is
// retried on the other node, and the run still equals extmem.Run.
func TestChaosInconsistentResponse(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, baseRes := runLocal(t, wg.o, 3)
	peers := startWorkers(t, 2)

	for _, list := range []bool{true, false} {
		var corrupted atomic.Bool
		var base http.Transport
		client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
			if !isTriple(req) || corrupted.Load() {
				return nil, nil, false
			}
			resp, err := base.RoundTrip(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				return resp, err, true
			}
			defer resp.Body.Close()
			var tr extmem.TripleResult
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				return nil, err, true
			}
			if list {
				tr.Count++
			} else {
				tr.Triangles = [][3]int32{{0, 1, 2}}
			}
			body, err := json.Marshal(tr)
			if err != nil {
				return nil, err, true
			}
			corrupted.Store(true)
			return synthResp(req, http.StatusOK, string(body)), nil, true
		})

		var mu sync.Mutex
		var strikes []error
		seq, res, rep, err := runMode(t, wg.o, 3, list, coord.Options{
			Peers:   peers,
			Client:  client,
			Workers: 1,
			Backoff: time.Millisecond,
			OnEvent: func(ev coord.Event) {
				if ev.Kind == coord.KindTask && ev.Status == "error" {
					mu.Lock()
					strikes = append(strikes, ev.Err)
					mu.Unlock()
				}
			},
		})
		base.CloseIdleConnections()
		if err != nil {
			t.Fatalf("list=%v: run with one inconsistent response: %v", list, err)
		}
		if res != baseRes {
			t.Errorf("list=%v: Result %+v != single-machine %+v", list, res, baseRes)
		}
		if list {
			sameSeq(t, "inconsistent-response", seq, baseSeq)
		}
		mu.Lock()
		if len(strikes) != 1 || !strings.Contains(strikes[0].Error(), "inconsistent triple response") {
			t.Errorf("list=%v: strikes %v, want exactly one inconsistent-response error", list, strikes)
		}
		mu.Unlock()
		if rep.Redispatches != 1 || rep.Alive != 2 {
			t.Errorf("list=%v: redispatches=%d alive=%d, want the pass retried once on the other node with both alive",
				list, rep.Redispatches, rep.Alive)
		}
	}
}

// TestChaosEvictedSetReshipped: a worker answering 404 for a triple
// (partition set evicted or the node restarted) gets the set
// re-shipped in-line and the pass retried — one extra ship event, zero
// output difference.
func TestChaosEvictedSetReshipped(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, baseRes := runLocal(t, wg.o, 3)
	peers := startWorkers(t, 2)

	var injected atomic.Bool
	client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
		if isTriple(req) && injected.CompareAndSwap(false, true) {
			return synthResp(req, http.StatusNotFound, `{"error":"unknown partition set"}`), nil, true
		}
		return nil, nil, false
	})

	var ships atomic.Int64
	seq, res, _, err := runCoord(t, wg.o, 3, coord.Options{
		Peers:  peers,
		Client: client,
		OnEvent: func(ev coord.Event) {
			if ev.Kind == coord.KindShip {
				ships.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("run with evicted set: %v", err)
	}
	if res != baseRes {
		t.Errorf("Result %+v != single-machine %+v", res, baseRes)
	}
	sameSeq(t, "reshipped", seq, baseSeq)
	if got := ships.Load(); got != 3 {
		t.Errorf("%d ship events, want 3 (2 initial + 1 re-ship)", got)
	}
}

// TestChaosCancelWithInflightRemoteTasks: cancelling the coordinator
// while remote tasks hang must return promptly with context.Canceled,
// commit a clean prefix, and leave no goroutines behind — neither the
// executor's workers nor RPCs parked in the chaos transport.
func TestChaosCancelWithInflightRemoteTasks(t *testing.T) {
	wg := wallGraphs(t)[0]
	baseSeq, _ := runLocal(t, wg.o, 5)
	peers := startWorkers(t, 2)

	released := make(chan struct{})
	var once sync.Once
	client := chaosClient(func(req *http.Request) (*http.Response, error, bool) {
		if !isTriple(req) {
			return nil, nil, false
		}
		once.Do(func() { close(released) }) // first triple RPC is in flight
		<-req.Context().Done()
		return nil, req.Context().Err(), true
	})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-released
		cancel()
	}()
	defer cancel()

	start := time.Now()
	var seq [][3]int32
	res, _, err := coord.Run(ctx, wg.o, 5, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
	}, coord.Options{Peers: peers, Client: client, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancel took %v to unwind", d)
	}
	if res.Triangles != int64(len(seq)) {
		t.Fatalf("partial count %d != visitor calls %d", res.Triangles, len(seq))
	}
	sameSeq(t, "cancelled-prefix", seq, baseSeq[:len(seq)])
	client.CloseIdleConnections()
	settleGoroutines(t, before)
}
