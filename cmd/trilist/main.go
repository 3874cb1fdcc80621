// Command trilist lists or counts triangles in an edge-list graph using
// any of the paper's 18 methods and 6 orders.
//
// Usage:
//
//	trilist -in graph.txt [-method auto] [-order auto] [-kernel auto] \
//	        [-plan] [-print] [-seed 1] [-workers 1] [-parts 1] \
//	        [-spill dir] [-timeout 0]
//
// -method, -order, -kernel and -parts resolve by the table on
// core.Resolve, the same one trid's job API uses: -method auto (the
// default) runs the planner's predicted-cheapest (method, order) pair
// under eq. (50), a named method with -order auto runs the
// paper-optimal order for it, and -kernel auto on a planned
// scanning-edge run takes the plan's priced kernel. -plan prints the
// full ranked prediction table and exits without sweeping — the
// explain mode. -kernel picks the neighbor-intersection strategy
// (merge, bitmap, the bit-parallel hybrid, or auto); kernels change
// only wall-clock speed — the triangle set and every reported cost
// meter are kernel-invariant. The names are checked before the graph
// is read, so a typo fails at once even on a large input.
// -print emits each triangle as "x y z" in relabeled
// IDs; omit it to report only the count and cost meters. Input may be a
// MatrixMarket .mtx file, a SNAP-style text edge list, the mmap-able
// TRCSRF CSR format, or the binary CSR stream — auto-detected, or
// pinned with -format (mtx, snap, csr, binary). TRCSRF files given via
// -in are memory-mapped rather than parsed; text formats parse
// chunk-parallel under -workers. -workers N parallelizes the sweep and
// the rank and orient stages (results are identical at any worker
// count); -parts P > 1 switches to the external-memory partitioned
// lister, the E2 block merge under -order (descending by default;
// -method must stay auto), spilling blocks to -spill (or memory if
// unset). Partitioned runs schedule the P³/streamable block triples on
// a scatter/gather executor: -workers passes run concurrently (output
// stays byte-identical at any worker count, with straggler re-issue
// when workers > 1), and -retries N with -retry-backoff D re-runs a
// pass after transient spill-store failures. -peers host1,host2 fans a
// partitioned run (-parts > 1 required) across remote trid workers:
// the partition set is shipped to every peer once and the block-triple
// passes execute as RPCs with retry, cross-node straggler re-issue and
// re-dispatch around node death — the triangle stream and every meter
// stay byte-identical to the local run. -timeout bounds the sweep
// (including partitioned runs,
// cancelled between block triples); on expiry trilist exits non-zero
// after reporting the partial triangle count. -stages prints a
// per-stage wall-clock breakdown (rank, orient, list) after the run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"trilist/internal/core"
	"trilist/internal/extmem"
	"trilist/internal/ingest"
	"trilist/internal/listing"
	"trilist/internal/obsv"
	"trilist/internal/planner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trilist:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trilist", flag.ContinueOnError)
	in := fs.String("in", "", "input graph file (default stdin)")
	formatName := fs.String("format", "auto", "input format: auto, mtx, snap, csr, binary")
	methodName := fs.String("method", "auto", "listing method: auto (planner-chosen) or T1-T6, E1-E6, L1-L6")
	orderName := fs.String("order", "auto", "order: auto, ascending, descending, round-robin, crr, uniform, degenerate")
	kernelName := fs.String("kernel", "auto", "intersection kernel: merge, bitmap, hybrid, auto")
	plan := fs.Bool("plan", false, "print the planner's ranked (method, order) cost table and exit without running")
	print := fs.Bool("print", false, "print each triangle (relabeled IDs x y z)")
	seed := fs.Uint64("seed", 1, "seed for the uniform order")
	workers := fs.Int("workers", 1, "parallel goroutines for prepare and the sweep (sweep needs a visitor-safe method)")
	parts := fs.Int("parts", 1, "external-memory partitions (>1 enables the partitioned E2 lister; -method must be auto)")
	spill := fs.String("spill", "", "spill directory for -parts (default: in-memory blocks)")
	retries := fs.Int("retries", 1, "attempts per block-triple pass under -parts (>1 retries transient store failures)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base backoff between block-triple retry attempts (doubles per retry)")
	peersFlag := fs.String("peers", "", "comma-separated trid worker base URLs; fans the partitioned run across them (requires -parts > 1)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit)")
	stages := fs.Bool("stages", false, "print a per-stage wall-clock breakdown after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	nparts := *parts
	if nparts <= 1 {
		nparts = 0 // the in-memory sweep
	}
	if len(peers) > 0 && nparts == 0 {
		return errors.New("-peers requires -parts > 1: only the partitioned lister fans across workers")
	}
	format, err := ingest.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	var rec *obsv.Recorder
	if *stages {
		rec = obsv.NewRecorder()
	}
	iopts := ingest.Options{Workers: *workers, Recorder: rec}
	var ld *ingest.Loaded
	defer func() { ld.Close() }()
	w := bufio.NewWriter(out)
	defer w.Flush()
	if *plan {
		// Explain mode: price the grid, print the ranking, run nothing.
		if ld, err = loadGraph(*in, format, iopts); err != nil {
			return err
		}
		p, err := planner.Compute(ld.Graph, planner.WithWorkers(*workers))
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, p.Format())
		return err
	}
	// Resolve checks every name before it asks for the plan, so the
	// graph is read only once the query is known to be valid: by the
	// plan callback on planned runs, right after Resolve otherwise.
	load := func() error {
		if ld != nil {
			return nil
		}
		var err error
		if ld, err = loadGraph(*in, format, iopts); err != nil {
			return err
		}
		fmt.Fprintf(w, "# graph: n=%d m=%d\n", ld.Graph.NumNodes(), ld.Graph.NumEdges())
		return nil
	}
	cfg, planned, err := core.Resolve(*methodName, *orderName, *kernelName, nparts, func() (*planner.Plan, error) {
		if err := load(); err != nil {
			return nil, err
		}
		return planner.Compute(ld.Graph, planner.WithWorkers(*workers))
	})
	if err != nil {
		return err
	}
	if err := load(); err != nil {
		return err
	}
	g := ld.Graph
	if planned != nil {
		fmt.Fprintf(w, "# planned: method=%v order=%v predicted-cost=%.6g\n", cfg.Method, cfg.Order, planned.Total)
	}
	cfg.Seed, cfg.Workers, cfg.Recorder = *seed, *workers, rec
	cfg.SpillDir, cfg.Peers = *spill, peers
	cfg.Retry = extmem.RetryPolicy{Attempts: *retries, Backoff: *retryBackoff}
	var visit listing.Visitor
	if *print {
		visit = func(x, y, z int32) { fmt.Fprintf(w, "%d %d %d\n", x, y, z) }
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := core.ListCtx(ctx, g, cfg, visit)
	if errors.Is(err, context.DeadlineExceeded) {
		// Non-zero exit, but report how far the sweep got.
		printStages(w, rec)
		if er := res.Partitioned; er != nil {
			return fmt.Errorf("deadline exceeded after %v: %d triangles found in %d passes before the run was cut short",
				*timeout, res.Triangles, er.Passes)
		}
		return fmt.Errorf("deadline exceeded after %v: %d triangles found before the sweep was cut short",
			*timeout, res.Triangles)
	}
	if err != nil {
		return err
	}
	if res.Partitioned != nil {
		printPartitioned(w, cfg, res)
	} else {
		fmt.Fprintf(w, "# method=%v order=%v kernel=%v\n", cfg.Method, cfg.Order, cfg.Kernel)
		fmt.Fprintf(w, "# triangles=%d\n", res.Triangles)
		fmt.Fprintf(w, "# model-ops=%d (per-node cost %.3f)\n",
			res.ModelOps(), float64(res.ModelOps())/float64(g.NumNodes()))
		fmt.Fprintf(w, "# max-out-degree=%d\n", res.MaxOutDeg)
	}
	fmt.Fprintf(w, "# prep=%v list=%v\n", res.PrepTime, res.ListTime)
	printStages(w, rec)
	return nil
}

// loadGraph reads the graph at path, or from stdin when path is empty.
// Close the result once the graph is no longer needed.
func loadGraph(path string, format ingest.Format, opts ingest.Options) (*ingest.Loaded, error) {
	if path != "" {
		return ingest.LoadFile(path, format, opts)
	}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, err
	}
	g, f, err := ingest.Parse(data, format, opts)
	if err != nil {
		return nil, err
	}
	return &ingest.Loaded{Graph: g, Format: f}, nil
}

// printStages renders the -stages breakdown as comment lines.
func printStages(w io.Writer, rec *obsv.Recorder) {
	if rec == nil {
		return
	}
	fmt.Fprintf(w, "# stage breakdown:\n")
	for _, line := range strings.Split(strings.TrimRight(rec.Format(), "\n"), "\n") {
		fmt.Fprintf(w, "#   %s\n", line)
	}
}

// printPartitioned reports a partitioned run: the schedule, the
// coordinator's fleet when it fanned out, and the block I/O meters.
func printPartitioned(w io.Writer, cfg core.Config, res core.Result) {
	er := res.Partitioned
	fmt.Fprintf(w, "# external-memory: parts=%d order=%v workers=%d\n", cfg.Parts, cfg.Order, cfg.Workers)
	if cr := res.Coord; cr != nil {
		fmt.Fprintf(w, "# coordinated: nodes=%d alive=%d bytes-shipped=%d redispatches=%d\n",
			cr.Nodes, cr.Alive, cr.BytesShipped, cr.Redispatches)
		nodes := make([]string, 0, len(cr.TasksByNode))
		for node := range cr.TasksByNode {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			fmt.Fprintf(w, "#   %s tasks=%d\n", node, cr.TasksByNode[node])
		}
	}
	fmt.Fprintf(w, "# triangles=%d\n", res.Triangles)
	fmt.Fprintf(w, "# passes=%d arcs-read=%d arcs-written=%d block-reads=%d\n",
		er.Passes, er.IO.ArcsRead, er.IO.ArcsWritten, er.IO.BlockReads)
}
