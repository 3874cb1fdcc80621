// Command perfbench is trilist's end-to-end benchmark. It drives real
// trid processes over loopback in one of three closed-loop workloads,
// checks every answer against in-process reference results, and prints
// the workload's metrics as one JSON object on the last line of
// standard output. With -trace 1 it also calls each layer's functions
// in-process on the same inputs, with spans around every call, and
// prints the per-layer metrics instead. See README.md.
//
// Usage (from the repository root; run.sh builds trid and this command):
//
//	bash perfbench/run.sh --workload warm-query --seed 1 --seconds 20 --trace 0
//	perfbench -compare old.json,new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eDefs are the end-to-end metrics every untraced run prints.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"count_auto_p50_ms", "ms"},
	{"count_e1_p50_ms", "ms"},
	{"list_p50_ms", "ms"},
	{"register_p50_ms", "ms"},
	{"bytes_to_triangles_p50_ms", "ms"},
	{"bytes_to_triangles_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerDefs are the per-layer metrics every traced run prints. A layer
// a workload does not exercise reports 0.
var layerDefs = []metricDef{
	{"ingest.parse_ms", "ms"},
	{"ingest.parse_mb_per_s", "MB/s"},
	{"ingest.edges", "count"},
	{"server.hash_ms", "ms"},
	{"planner.compute_ms", "ms"},
	{"planner.predicted_actual_ratio", "ratio"},
	{"planner.time_regret", "ratio"},
	{"csrfile.write_ms", "ms"},
	{"order.rank_ms", "ms"},
	{"digraph.orient_ms", "ms"},
	{"listing.planned.w1_ms", "ms"},
	{"listing.T1.w1_ms", "ms"},
	{"listing.E1.merge.w1_ms", "ms"},
	{"listing.E1.gallop.w1_ms", "ms"},
	{"listing.E1.bitmap.w1_ms", "ms"},
	{"listing.E1.auto.w1_ms", "ms"},
	{"listing.E1.bits.w1_ms", "ms"},
	{"listing.E1.hybrid.w1_ms", "ms"},
	{"listing.E1.auto.w2_ms", "ms"},
	{"listing.model_ops", "count"},
	{"listing.mops_per_s", "Mops/s"},
	{"listing.list_limit_ms", "ms"},
	{"extmem.partition_ms", "ms"},
	{"extmem.run_ms", "ms"},
	{"extmem.encode_ms", "ms"},
	{"extmem.decode_ms", "ms"},
	{"extmem.wire_bytes", "bytes"},
	{"extmem.passes", "count"},
	{"exec.attempts", "count"},
	{"exec.retries", "count"},
	{"exec.reissued", "count"},
	{"exec.useful_ratio", "ratio"},
	{"coord.run_ms", "ms"},
	{"coord.overhead_ratio", "ratio"},
	{"coord.bytes_shipped", "bytes"},
	{"coord.task_p50_ms", "ms"},
	{"coord.response_bytes", "bytes"},
	{"server.queue_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.list_response_bytes", "bytes"},
	{"server.orient_hit_ratio", "ratio"},
	{"server.evictions", "count"},
	{"trace.coverage", "ratio"},
}

// metric is one reported figure. Summary, Source and Samples (in the
// order taken) describe the samples it was reduced from, where there
// were several.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Summary *Summary  `json:"summary,omitempty"`
	Source  string    `json:"source,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// hostShape is what two results must share to be compared.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

type provenance struct {
	Host      hostShape `json:"host"`
	GoVersion string    `json:"go_version"`
	Commit    string    `json:"commit"`
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
}

// result is the full record of one run, written to the results
// directory; its last-line summary is what the run prints.
type result struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	E2E        map[string]metric  `json:"e2e,omitempty"` // the traced run's own end-to-end figures
	Info       map[string]float64 `json:"info"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: warm-query, cold-register or coord-partitioned")
	seed := fs.Uint64("seed", 1, "seed of the inputs (relabeling and edge order)")
	seconds := fs.Int("seconds", 20, "length of the timed loop")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	tridBin := fs.String("trid", "", "trid binary to run")
	out := fs.String("out", ".bench_build/perfbench", "directory for cached graphs, temp files, spans and results")
	compare := fs.String("compare", "", "old.json,new.json: compare two result files instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		return compareResults(*compare)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *tridBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -trid, -seconds >= 1 and -trace 0 or 1")
	}
	res, err := execute(newBench(w, *seed, *seconds, *tridBin, *out), *trace == 1)
	if err != nil {
		return err
	}
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: full result in %s\n", path)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	last := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": compact(res.Metrics)}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("wrong or failed operations; see the errors above")
	}
	return nil
}

// execute runs one workload end to end and assembles its result.
func execute(b *bench, traced bool) (result, error) {
	defer b.teardown()
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	var before, after map[string]float64
	counterNames := []string{"trid_graph_cache_hits_total", "trid_graph_cache_misses_total", "trid_graph_cache_evictions_total"}
	scrape := func(into *map[string]float64) func() error {
		return func() (err error) {
			*into, err = b.api().counters(counterNames...)
			return err
		}
	}
	if err := b.measure(scrape(&before), scrape(&after)); err != nil {
		return result{}, err
	}
	res := result{
		Provenance: provenance{
			Host: currentHost(), GoVersion: runtime.Version(), Commit: commit(),
			Workload: b.w.name, Seed: b.seed, Seconds: b.seconds, Trace: traced,
		},
		Attempted: b.attempted,
		Failed:    b.failed,
		Errors:    b.errs,
		Info:      b.info,
	}
	e2e := b.e2eMetrics()
	res.Metrics = e2e
	if traced {
		t := &tracer{}
		l, err := b.replay(t)
		if err != nil {
			return result{}, err
		}
		if err := t.write(filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))); err != nil {
			return result{}, err
		}
		b.serverLayers(l, before, after)
		l.add("trace.coverage", b.coverage(l, e2e))
		res.Metrics, res.E2E = layerMetrics(l), e2e
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// e2eMetrics reduces the run's samples to the end-to-end metrics. A
// figure comes from the timed loop where the loop takes that sample,
// and from its probes otherwise.
func (b *bench) e2eMetrics() map[string]metric {
	out := make(map[string]metric, len(e2eDefs))
	from := func(name, sample string, p90 bool) {
		src := "loop"
		if len(b.loopS[sample]) == 0 {
			src = "probe"
		}
		xs := b.samples(sample)
		s := Summarize(xs)
		v := s.Median
		if p90 {
			v = s.P90
		}
		out[name] = metric{Value: v, Summary: &s, Source: src, Samples: xs}
	}
	setup := Summarize(b.setupS)
	out["setup_s"] = metric{Value: setup.Median, Summary: &setup, Source: "set-up", Samples: b.setupS}
	out["jobs_per_s"] = metric{Value: float64(b.loopJobs) / b.loopWall.Seconds(), Source: "loop"}
	from("job_p50_ms", "job_ms", false)
	from("job_p90_ms", "job_ms", true)
	from("count_auto_p50_ms", "count_auto_ms", false)
	from("count_e1_p50_ms", "count_e1_ms", false)
	from("list_p50_ms", "list_ms", false)
	from("register_p50_ms", "register_ms", false)
	from("bytes_to_triangles_p50_ms", "b2t_ms", false)
	from("bytes_to_triangles_p90_ms", "b2t_ms", true)
	out["peak_rss_mb"] = metric{Value: b.rssMiB}
	for _, d := range e2eDefs {
		m := out[d.name]
		m.Unit = d.unit
		out[d.name] = m
	}
	return out
}

// serverLayers adds the server-side figures of the loop jobs and the
// registry counters scraped around the loop.
func (b *bench) serverLayers(l layers, before, after map[string]float64) {
	var queue, overhead, listBytes []float64
	for _, r := range b.records {
		queue = append(queue, r.queueMS)
		overhead = append(overhead, r.ms-r.queueMS-r.stageMS)
		if r.list {
			listBytes = append(listBytes, float64(r.bytes))
		}
	}
	l.add("server.queue_ms", Summarize(queue).Median)
	l.add("server.http_overhead_ms", Summarize(overhead).Median)
	if len(listBytes) > 0 {
		l.add("server.list_response_bytes", Summarize(listBytes).Median)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("trid_graph_cache_hits_total"), delta("trid_graph_cache_misses_total")
	if hits+misses > 0 {
		l.add("server.orient_hit_ratio", hits/(hits+misses))
	}
	l.add("server.evictions", delta("trid_graph_cache_evictions_total"))
}

// coverage is the traced layer time of the workload's characteristic
// operation over its end-to-end median: how much of what a client
// waits for the layer metrics account for.
func (b *bench) coverage(l layers, e2e map[string]metric) float64 {
	switch b.w.name {
	case "coord-partitioned":
		return l.median("coord.run_ms") / e2e["job_p50_ms"].Value
	case "cold-register":
		var traced float64
		for _, n := range []string{"ingest.parse_ms", "server.hash_ms", "planner.compute_ms", "csrfile.write_ms",
			"order.rank_ms", "digraph.orient_ms", "listing.list_limit_ms"} {
			traced += l.median(n)
		}
		return traced / e2e["bytes_to_triangles_p50_ms"].Value
	default:
		traced := l.median("listing.planned.w1_ms") + l.median("listing.E1.auto.w1_ms") + l.median("listing.list_limit_ms")
		return traced / (e2e["count_auto_p50_ms"].Value + e2e["count_e1_p50_ms"].Value + e2e["list_p50_ms"].Value)
	}
}

// layerMetrics reduces the per-layer samples; layers the workload does
// not exercise report 0.
func layerMetrics(l layers) map[string]metric {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		m := metric{Unit: d.unit, Source: "not exercised"}
		if xs := l[d.name]; len(xs) > 0 {
			s := Summarize(xs)
			m.Value, m.Summary, m.Source, m.Samples = s.Median, &s, "trace", xs
		}
		out[d.name] = m
	}
	return out
}

// compact strips a metric map to the value and unit of each entry.
func compact(in map[string]metric) map[string]metric {
	out := make(map[string]metric, len(in))
	for k, m := range in {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func currentHost() hostShape {
	h := hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return h
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// compareResults prints the change of every metric between two result
// files, refusing results taken on different host shapes or workloads.
func compareResults(arg string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants old.json,new.json, got %q", arg)
	}
	var rs [2]result
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0].Provenance, rs[1].Provenance
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare results from different host shapes: %+v vs %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s (trace=%v, %ds) with %s (trace=%v, %ds)",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	defs := e2eDefs
	if a.Trace {
		defs = layerDefs
	}
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", paths[0], paths[1], "new/old")
	for _, d := range defs {
		o, n := rs[0].Metrics[d.name].Value, rs[1].Metrics[d.name].Value
		ratio := "-"
		if o != 0 {
			ratio = fmt.Sprintf("%.3f", n/o)
		}
		fmt.Printf("%-32s %14.4g %14.4g %8s %s\n", d.name, o, n, ratio, d.unit)
	}
	return nil
}
