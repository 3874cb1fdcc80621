package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"trilist/internal/listing"
	"trilist/internal/planner"
)

func TestJobKernelSelectionAndMetrics(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, erGraphText(t, 120, 900, 6))

	// An unset kernel resolves to auto; every explicit kernel must report
	// the same triangle count (the whole point of the kernel layer).
	code, ref := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("job status %d", code)
	}
	if ref.Kernel != "auto" {
		t.Fatalf("default kernel = %q, want auto", ref.Kernel)
	}
	for _, kern := range []string{"merge", "bitmap", "auto", "hybrid"} {
		code, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Kernel: kern, Wait: true})
		if code != http.StatusOK {
			t.Fatalf("kernel %s: status %d", kern, code)
		}
		if v.Kernel != kern {
			t.Fatalf("kernel %s echoed as %q", kern, v.Kernel)
		}
		if v.Triangles != ref.Triangles || v.ModelOps != ref.ModelOps {
			t.Fatalf("kernel %s: %d triangles / %d model-ops, want %d / %d",
				kern, v.Triangles, v.ModelOps, ref.Triangles, ref.ModelOps)
		}
	}

	// Unknown names answer 400, gallop and bits included.
	for _, kern := range []string{"quantum", "gallop", "bits"} {
		code, _ = e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Kernel: kern})
		if code != http.StatusBadRequest {
			t.Fatalf("kernel %q accepted with status %d", kern, code)
		}
	}

	// Per-kernel sweep counts: 2 auto jobs (default + explicit) and 1
	// each of the rest.
	text := e.metricsText(t)
	for label, want := range map[string]int64{"auto": 2, "merge": 1, "bitmap": 1, "hybrid": 1} {
		name := `trid_kernel_duration_seconds_count{kernel="` + label + `"}`
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// kernelPlanView mirrors the plan response's kernel object.
type kernelPlanView struct {
	Kernel        string  `json:"kernel"`
	CoreThreshold int32   `json:"core_threshold"`
	CoreVertices  int64   `json:"core_vertices"`
	RowBytes      int64   `json:"row_bytes"`
	CoreShare     float64 `json:"core_share"`
	Gain          float64 `json:"predicted_gain"`
}

// TestGraphPlanKernelView: /v1/graphs/{id}/plan carries the priced
// kernel choice, and its name round-trips through the job API's parser.
func TestGraphPlanKernelView(t *testing.T) {
	// Pin the calibration so the priced choice is host-independent.
	restore := planner.SetKernelCoeffs(planner.KernelCoeffs{ProbeNs: 1, WordNs: 0.01})
	defer restore()

	e := newTestEnv(t, Options{})
	info := e.register(t, erGraphText(t, 300, 2000, 5))

	code, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	if code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", code, out)
	}
	var pv struct {
		Kernel kernelPlanView `json:"kernel"`
	}
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatalf("bad plan JSON: %v: %s", err, out)
	}
	if pv.Kernel.CoreThreshold < 1 {
		t.Errorf("plan kernel core_threshold = %d, want ≥ 1", pv.Kernel.CoreThreshold)
	}
	if _, err := listing.ParseKernel(pv.Kernel.Kernel); err != nil {
		t.Errorf("plan kernel %q does not parse: %v", pv.Kernel.Kernel, err)
	}
	// 300 nodes fit the row budget at τ=1, so every active vertex is
	// core and cheap words make the bit tier a clear win.
	if pv.Kernel.Kernel != "hybrid" {
		t.Errorf("plan kernel = %q (gain %v), want hybrid under pinned cheap-word costs",
			pv.Kernel.Kernel, pv.Kernel.Gain)
	}
	if pv.Kernel.CoreVertices <= 0 || pv.Kernel.RowBytes <= 0 {
		t.Errorf("plan kernel economics empty: %+v", pv.Kernel)
	}
}

// TestKernelAutoResolution: kernel=auto on a planner-driven job resolves
// through the plan's priced choice iff the chosen method is a
// scanning-edge iterator; explicit kernel names execute as named and
// never report planned_kernel.
func TestKernelAutoResolution(t *testing.T) {
	restore := planner.SetKernelCoeffs(planner.KernelCoeffs{ProbeNs: 1, WordNs: 0.01})
	defer restore()

	e := newTestEnv(t, Options{})
	info := e.register(t, erGraphText(t, 300, 2000, 5))

	_, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	var pv struct {
		Chosen struct {
			Method string `json:"method"`
		} `json:"chosen"`
		Kernel kernelPlanView `json:"kernel"`
	}
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatal(err)
	}
	chosen, err := listing.ParseMethod(pv.Chosen.Method)
	if err != nil {
		t.Fatal(err)
	}

	// method=auto + kernel=auto (and the empty default): the kernel the
	// job runs is the plan's priced choice when the planner landed on a
	// scanning-edge iterator, the adaptive default otherwise.
	for _, spec := range []JobSpec{
		{Graph: info.ID, Wait: true},
		{Graph: info.ID, Kernel: "auto", Wait: true},
	} {
		code, jv := e.postJob(t, spec)
		if code != http.StatusOK || jv.Status != string(JobDone) {
			t.Fatalf("auto job: code=%d view=%+v", code, jv)
		}
		if chosen.Family() == listing.ScanningEdgeIterator {
			if jv.PlannedKernel == "" || jv.PlannedKernel != jv.Kernel {
				t.Errorf("SEI auto job: planned_kernel %q / kernel %q, want equal and set",
					jv.PlannedKernel, jv.Kernel)
			}
			if jv.Kernel != pv.Kernel.Kernel {
				t.Errorf("auto job ran kernel %q, plan priced %q", jv.Kernel, pv.Kernel.Kernel)
			}
		} else {
			if jv.PlannedKernel != "" || jv.Kernel != "auto" {
				t.Errorf("non-SEI auto job: planned_kernel %q kernel %q, want unresolved auto",
					jv.PlannedKernel, jv.Kernel)
			}
		}
	}

	// Explicit kernel names bypass pricing even on planner-driven jobs.
	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Kernel: "bitmap", Wait: true})
	if code != http.StatusOK || jv.Kernel != "bitmap" || jv.PlannedKernel != "" {
		t.Errorf("explicit bitmap on auto method: code=%d kernel=%q planned_kernel=%q",
			code, jv.Kernel, jv.PlannedKernel)
	}
	// Explicit-method jobs never consult the planner, kernel included.
	code, jv = e.postJob(t, JobSpec{Graph: info.ID, Method: "E2", Wait: true})
	if code != http.StatusOK || jv.Kernel != "auto" || jv.PlannedKernel != "" {
		t.Errorf("explicit E2 + default kernel: code=%d kernel=%q planned_kernel=%q",
			code, jv.Kernel, jv.PlannedKernel)
	}
}
