package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/server"
	"trilist/internal/stats"
)

const (
	// coordParts is the partition count of coordinated jobs: 8 parts
	// give 120 block triples.
	coordParts = 8
	// coordWorkers is the RPC fan-out of coordinated jobs: two in flight
	// per worker node, the coordinator's own default. At 2 the
	// coordinator runs the largest triple on one node and the other 119
	// on the other, and job latency splits into two modes by whether
	// the straggler re-issue wins: its p50 moved by 0.31 (IQR ÷ median)
	// over 10 runs, more than any bound the benchmark may set.
	coordWorkers = 4
	// setups is how many times set-up is repeated; setup_s is the median
	// and the last set-up's processes serve the loop.
	setups = 3
)

// workload is one set of inputs and one closed loop.
type workload struct {
	name string
	// graph is the fixed base graph; the seed draws the relabeling trid
	// receives, so every seed does the same work.
	graph shape
	// listLimit is the limit of the workload's list job spec.
	listLimit int
	// probeSpecs names the mix specs the loop does not run as its own
	// operation; the loop interleaves one-job probes of them, so their
	// samples spread over the whole loop. Taken in a burst before it,
	// their medians moved with the host's speed during that burst: 0.29
	// (IQR ÷ median) over 10 runs, and per-burst medians of one spec
	// differed by up to 1.8× between runs.
	probeSpecs []string
	// registerProbes is how many cold-register ops are probed after the
	// loop, for the loops that do not register.
	registerProbes int
	// coordinated runs a coordinator plus two workers instead of one
	// standalone trid.
	coordinated bool
	// csrDir gives trid a fresh -csr-dir per set-up.
	csrDir bool
	// cacheBytes overrides trid's -cache-bytes when > 0.
	cacheBytes int64
	// loop runs the timed closed loop until the deadline.
	loop func(b *bench, deadline time.Time)
}

var workloads = []workload{
	{
		name:      "warm-query",
		graph:     shape{N: 60000, Trunc: degseq.LinearTruncation, Seed: 1},
		listLimit: 100000,
		// The loop runs every spec of the mix.
		registerProbes: 8,
		loop:           warmLoop,
	},
	{
		name:       "cold-register",
		graph:      shape{N: 100000, Trunc: degseq.RootTruncation, Seed: 1},
		listLimit:  1000,
		probeSpecs: []string{"count_auto", "count_e1"},
		csrDir:     true,
		cacheBytes: 256 << 20,
		loop:       coldLoop,
	},
	{
		name:           "coord-partitioned",
		graph:          shape{N: 5000, Trunc: degseq.LinearTruncation, Seed: 1},
		listLimit:      1000,
		probeSpecs:     []string{"list", "count_auto", "count_e1"},
		registerProbes: 100,
		coordinated:    true,
		loop:           coordLoop,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobSpec is one named job of the standard mix.
type jobSpec struct {
	name string // sample name: count_auto, count_e1, list, coord
	spec server.JobSpec
}

// jobRecord is one finished loop job, for the server-layer metrics.
type jobRecord struct {
	list    bool
	ms      float64 // client-observed latency
	queueMS float64
	stageMS float64 // Σ stage_ms
	bytes   int
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    uint64
	seconds int
	tridBin string
	out     string // output directory: cache, temp dirs, spans, results
	rng     *stats.RNG
	hc      *http.Client

	base *graph.Graph
	body []byte  // the relabeling every set-up registers
	ref  *oracle // reference answers for body
	// coordRef is the local extmem.Run every coordinated job must equal.
	coordRef extmem.Result

	procs   []*proc // the current set-up's processes; procs[0] serves the API
	tmpDirs []string
	graphID string

	mu        sync.Mutex
	setupS    []float64            // set-up times, seconds
	loopS     map[string][]float64 // samples taken in the timed loop
	probeS    map[string][]float64 // samples taken by probes
	records   []jobRecord
	attempted int
	failed    int
	errs      []string
	loopWall  time.Duration // denominator of jobs_per_s
	loopJobs  int
	rssMiB    float64
	info      map[string]float64 // informational figures, not metrics
}

func newBench(w workload, seed uint64, seconds int, tridBin, out string) *bench {
	return &bench{
		w: w, seed: seed, seconds: seconds, tridBin: tridBin, out: out,
		rng: stats.NewRNGFromSeed(seed),
		hc: &http.Client{
			Timeout:   150 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
		loopS:  make(map[string][]float64),
		probeS: make(map[string][]float64),
		info:   make(map[string]float64),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check counts one checked operation and records its failure, if any.
func (b *bench) check(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 10 {
			b.errs = append(b.errs, err.Error())
		}
	}
	return err == nil
}

func (b *bench) add(into map[string][]float64, name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	into[name] = append(into[name], v)
}

// prepare makes the inputs and the reference answers the loop checks
// against, so that no reference sweep competes with trid during the
// loop. None of it is timed as set-up: it is the load generator's work.
func (b *bench) prepare() error {
	if err := os.MkdirAll(filepath.Join(b.out, "tmp"), 0o755); err != nil {
		return err
	}
	base, d, err := baseGraph(filepath.Join(b.out, "graphs"), b.w.graph)
	if err != nil {
		return err
	}
	b.base = base
	b.info["input_gen_s"] = d.Seconds()
	t0 := time.Now()
	b.body = relabel(base, b.rng)
	if b.ref, err = newOracle(b.body); err != nil {
		return err
	}
	m, k, err := b.ref.planned()
	if err != nil {
		return err
	}
	if _, err := b.ref.reference(m, k); err != nil {
		return err
	}
	if _, err := b.ref.reference(listing.E1, core.Recommended(listing.E1)); err != nil {
		return err
	}
	if _, err := b.ref.oriented(k); err != nil {
		return err
	}
	if b.w.coordinated {
		d, err := b.ref.oriented(order.KindDescending)
		if err != nil {
			return err
		}
		b.coordRef, err = extmem.Run(context.Background(), d, coordParts, extmem.NewMemStore(), nil,
			extmem.WithWorkers(inprocWorkers))
		if err != nil {
			return err
		}
	}
	b.info["oracle_s"] = time.Since(t0).Seconds()
	b.info["input_bytes"] = float64(len(b.body))
	b.info["edges"] = float64(base.NumEdges())
	b.info["triangles"] = float64(b.ref.triangles)
	return nil
}

// mix is the standard job mix on graph id: warm-query's loop, and every
// workload's warm-up after registration. The list job comes first, so
// it is the graph's first (cold) job.
func (b *bench) mix(id string) []jobSpec {
	return []jobSpec{
		{"list", server.JobSpec{Graph: id, Mode: "list", Limit: b.w.listLimit}},
		{"count_auto", server.JobSpec{Graph: id, Mode: "count"}},
		{"count_e1", server.JobSpec{Graph: id, Mode: "count", Method: "E1"}},
	}
}

func (b *bench) coordSpec() server.JobSpec {
	return server.JobSpec{Graph: b.graphID, Mode: "count", Parts: coordParts, Workers: coordWorkers}
}

// checkJob decodes a reply to a job of the mix and verifies it against
// or.
func (b *bench) checkJob(or *oracle, s jobSpec, r *jobReply) error {
	if err := r.decode(); err != nil {
		return err
	}
	if s.spec.Mode == "list" {
		return or.checkList(r.view, s.spec.Limit)
	}
	return or.checkCount(r.view)
}

// runJob runs one job of the mix and verifies it against or.
func (b *bench) runJob(api *client, or *oracle, s jobSpec) (jobReply, bool) {
	r, err := api.job(s.spec)
	if err == nil {
		err = b.checkJob(or, s, &r)
	}
	return r, b.check(err)
}

// launch starts the workload's trid processes; procs[0] serves the API.
func (b *bench) launch() error {
	if b.w.coordinated {
		var peers []string
		for i := 0; i < 2; i++ {
			p, err := startTrid(b.tridBin, "-role", "worker")
			if err != nil {
				return err
			}
			b.procs = append(b.procs, p)
			peers = append(peers, p.url)
		}
		p, err := startTrid(b.tridBin, "-role", "coordinator", "-peers", strings.Join(peers, ","))
		if err != nil {
			return err
		}
		b.procs = append([]*proc{p}, b.procs...)
		return nil
	}
	var args []string
	if b.w.csrDir {
		dir, err := os.MkdirTemp(filepath.Join(b.out, "tmp"), "csr-")
		if err != nil {
			return err
		}
		b.tmpDirs = append(b.tmpDirs, dir)
		args = append(args, "-csr-dir", dir)
	}
	if b.w.cacheBytes > 0 {
		args = append(args, "-cache-bytes", fmt.Sprint(b.w.cacheBytes))
	}
	p, err := startTrid(b.tridBin, args...)
	if err != nil {
		return err
	}
	b.procs = []*proc{p}
	return nil
}

// teardown stops every process and removes the temp dirs.
func (b *bench) teardown() {
	for _, p := range b.procs {
		p.stop()
	}
	b.procs = nil
	for _, d := range b.tmpDirs {
		_ = os.RemoveAll(d)
	}
	b.tmpDirs = nil
}

func (b *bench) api() *client { return &client{hc: b.hc, url: b.procs[0].url} }

// setup launches a fresh process set and brings it to the state the
// loop starts from: healthy, the graph registered, and one job of each
// spec of the mix run.
func (b *bench) setup() error {
	t0 := time.Now()
	if err := b.launch(); err != nil {
		return err
	}
	for _, p := range b.procs {
		if err := (&client{hc: b.hc, url: p.url}).healthz(); err != nil {
			return err
		}
	}
	api := b.api()
	info, _, err := api.register(b.body)
	if err = errors.Join(err, b.ref.checkRegister(info)); !b.check(err) {
		return fmt.Errorf("set-up registration: %w", err)
	}
	b.graphID = info.ID
	for _, s := range b.mix(info.ID) {
		b.runJob(api, b.ref, s)
	}
	b.mu.Lock()
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	b.mu.Unlock()
	return nil
}

// registerOp registers a relabeling trid has not seen and lists the
// first triangles of it: the cold-register op. Making the relabeling
// and its reference answers is not timed.
func (b *bench) registerOp(api *client) (reg time.Duration, r jobReply, ok bool) {
	body := relabel(b.base, b.rng)
	or, err := newOracle(body)
	if !b.check(err) {
		return 0, r, false
	}
	// Isomorphic to the set-up graph: same triangle count.
	or.triangles = b.ref.triangles
	info, reg, err := api.register(body)
	if !b.check(errors.Join(err, or.checkRegister(info))) {
		return 0, r, false
	}
	r, ok = b.runJob(api, or, b.mix(info.ID)[0])
	return reg, r, ok
}

// recordJob files one loop job under the job and spec sample names.
func (b *bench) recordJob(name string, r jobReply) {
	var stage float64
	for _, v := range r.view.StageMS {
		stage += v
	}
	b.add(b.loopS, "job_ms", ms(r.d))
	b.add(b.loopS, name+"_ms", ms(r.d))
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loopJobs++
	b.records = append(b.records, jobRecord{
		list: r.view.Mode == "list", ms: ms(r.d), queueMS: r.view.QueueMS, stageMS: stage, bytes: r.bytes,
	})
}

// warmLoop: one client cycling through the mix on the one resident
// graph, so every job is a registry hit and runs alone on the daemon.
// With two clients a job's latency depended on which job ran beside it,
// and job_p50_ms moved by 0.26 (IQR ÷ median) over 10 runs. Replies are
// decoded and checked after the loop, so the loop's wall time is the
// daemon's.
func warmLoop(b *bench, deadline time.Time) {
	api := b.api()
	specs := b.mix(b.graphID)
	type done struct {
		s jobSpec
		r jobReply
	}
	var replies []done
	t0 := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		s := specs[i%len(specs)]
		r, err := api.job(s.spec)
		if err != nil {
			b.check(err)
			continue
		}
		replies = append(replies, done{s, r})
	}
	b.loopWall = time.Since(t0)
	for _, d := range replies {
		if b.check(b.checkJob(b.ref, d.s, &d.r)) {
			b.recordJob(d.s.name, d.r)
		}
	}
}

// coldLoop: one client, each op registering a fresh relabeling and
// listing its first triangles, then probing the next probe spec on the
// set-up graph. The probes keep that graph the most recently used, so
// it is never evicted. jobs_per_s is over the time trid spent on the
// ops, without the untimed relabeling and the probes.
func coldLoop(b *bench, deadline time.Time) {
	api := b.api()
	probes := b.probeMix()
	for i := 0; time.Now().Before(deadline); i++ {
		if reg, r, ok := b.registerOp(api); ok {
			b.add(b.loopS, "register_ms", ms(reg))
			b.add(b.loopS, "b2t_ms", ms(reg+r.d))
			b.recordJob("list", r)
			b.loopWall += reg + r.d
		}
		b.probeJob(api, probes[i%len(probes)])
	}
}

// coordLoop: one client sending coordinated partitioned count jobs,
// each followed by one local job of every probe spec. jobs_per_s is
// over the coordinated jobs' time only.
func coordLoop(b *bench, deadline time.Time) {
	api := b.api()
	for time.Now().Before(deadline) {
		r, err := api.job(b.coordSpec())
		if err == nil {
			err = r.decode()
		}
		if err == nil {
			err = checkCoord(r.view, b.coordRef)
		}
		if b.check(err) {
			b.recordJob("coord", r)
			b.loopWall += r.d
		}
		for _, s := range b.probeMix() {
			b.probeJob(api, s)
		}
	}
}

// probeMix is the specs of the mix named in b.w.probeSpecs.
func (b *bench) probeMix() []jobSpec {
	var out []jobSpec
	for _, s := range b.mix(b.graphID) {
		if slices.Contains(b.w.probeSpecs, s.name) {
			out = append(out, s)
		}
	}
	return out
}

// probeJob takes one probe sample of s on the set-up graph.
func (b *bench) probeJob(api *client, s jobSpec) {
	if r, ok := b.runJob(api, b.ref, s); ok {
		b.add(b.probeS, s.name+"_ms", ms(r.d))
	}
}

// probeRegistrations takes b.w.registerProbes samples of the
// cold-register op. It runs after the loop, so the graphs it adds do not
// count in the loop's memory.
func (b *bench) probeRegistrations() {
	api := b.api()
	for i := 0; i < b.w.registerProbes; i++ {
		if reg, r, ok := b.registerOp(api); ok {
			b.add(b.probeS, "register_ms", ms(reg))
			b.add(b.probeS, "b2t_ms", ms(reg+r.d))
		}
	}
}

// samples returns a sample set from the loop when the loop takes it,
// else from the probes.
func (b *bench) samples(name string) []float64 {
	if s := b.loopS[name]; len(s) > 0 {
		return s
	}
	return b.probeS[name]
}

// measure runs set-up (repeated), the loop and the registration
// probes, leaving the last set-up's processes running for
// the caller to inspect and tear down. Peak memory is read before the
// registration probes add graphs.
func (b *bench) measure(before, after func() error) error {
	for i := 0; i < setups; i++ {
		b.teardown()
		if err := b.setup(); err != nil {
			return err
		}
	}
	if err := before(); err != nil {
		return err
	}
	steal0, total0 := cpuTicks()
	b.w.loop(b, time.Now().Add(time.Duration(b.seconds)*time.Second))
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor ran someone else on this host's CPUs: a
		// run with a high share was slowed by its neighbours.
		b.info["loop_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := after(); err != nil {
		return err
	}
	for _, p := range b.procs {
		rss, err := p.peakRSSMiB()
		if err != nil {
			return err
		}
		b.rssMiB += rss
	}
	b.probeRegistrations()
	return nil
}

// cpuTicks reads the steal and total jiffies of all CPUs from /proc/stat;
// zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
