package core

import (
	"errors"
	"strings"
	"testing"

	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
)

// TestResolveTable walks every row of Resolve's table: each method ×
// order combination in memory and partitioned, and kernel auto on
// planned scanning-edge, planned other-family and unplanned queries.
func TestResolveTable(t *testing.T) {
	kplan := planner.KernelPlan{Kernel: listing.KernelHybrid, CoreThreshold: 40}
	// seiPlan ranks a scanning-edge pair first; otherPlan a vertex
	// iterator, with a scanning-edge method best under ascending.
	seiPlan := &planner.Plan{Kernel: kplan, Ranking: []planner.Candidate{
		{Method: listing.E1, Order: order.KindDescending, Total: 10},
		{Method: listing.T1, Order: order.KindAscending, Total: 20},
		{Method: listing.L2, Order: order.KindCRR, Total: 30},
	}}
	otherPlan := &planner.Plan{Kernel: kplan, Ranking: []planner.Candidate{
		{Method: listing.T1, Order: order.KindDescending, Total: 5},
		{Method: listing.E3, Order: order.KindAscending, Total: 7},
	}}
	type want struct {
		method listing.Method
		order  order.Kind
		kernel listing.Kernel
		tau    int32
		// total > 0 expects a planned query with that predicted cost;
		// plannedKernel expects the kernel to come from the plan.
		total         float64
		plannedKernel bool
	}
	for _, c := range []struct {
		name                string
		method, ord, kernel string
		parts               int
		plan                *planner.Plan
		want                want
		wantErr             string
		wantPlanCalls       int
	}{
		{name: "auto×auto SEI", method: "auto", ord: "auto", plan: seiPlan, wantPlanCalls: 1,
			want: want{listing.E1, order.KindDescending, listing.KernelHybrid, 40, 10, true}},
		{name: "empty names are auto", plan: seiPlan, wantPlanCalls: 1,
			want: want{listing.E1, order.KindDescending, listing.KernelHybrid, 40, 10, true}},
		{name: "auto×auto vertex iterator", method: "AUTO", plan: otherPlan, wantPlanCalls: 1,
			want: want{listing.T1, order.KindDescending, listing.KernelAuto, 0, 5, false}},
		{name: "auto×explicit", ord: "asc", plan: seiPlan, wantPlanCalls: 1,
			want: want{listing.T1, order.KindAscending, listing.KernelAuto, 0, 20, false}},
		{name: "auto×explicit SEI", ord: "ascending", plan: otherPlan, wantPlanCalls: 1,
			want: want{listing.E3, order.KindAscending, listing.KernelHybrid, 40, 7, true}},
		{name: "auto×degenerate", ord: "degenerate", plan: seiPlan, wantPlanCalls: 1,
			wantErr: "cannot plan order"},
		{name: "explicit kernel on planned SEI", kernel: "bitmap", plan: seiPlan, wantPlanCalls: 1,
			want: want{listing.E1, order.KindDescending, listing.KernelBitmap, 0, 10, false}},
		{name: "explicit×auto", method: "E4",
			want: want{listing.E4, order.KindCRR, listing.KernelAuto, 0, 0, false}},
		{name: "explicit SEI × auto keeps kernel auto", method: "e1", kernel: "auto",
			want: want{listing.E1, order.KindDescending, listing.KernelAuto, 0, 0, false}},
		{name: "explicit×explicit", method: "T2", ord: "desc", kernel: "bitmap",
			want: want{listing.T2, order.KindDescending, listing.KernelBitmap, 0, 0, false}},
		{name: "explicit × degenerate", method: "T1", ord: "degen",
			want: want{listing.T1, order.KindDegenerate, listing.KernelAuto, 0, 0, false}},
		{name: "parts, auto×auto", parts: 3,
			want: want{listing.E2, order.KindDescending, listing.KernelAuto, 0, 0, false}},
		{name: "parts, auto×explicit", method: "auto", ord: "rr", parts: 3,
			want: want{listing.E2, order.KindRoundRobin, listing.KernelAuto, 0, 0, false}},
		{name: "parts, explicit method", method: "E2", parts: 3, wantErr: "cannot be combined"},
		{name: "negative parts", parts: -1, wantErr: "negative parts"},
		{name: "unknown method", method: "T9", wantErr: "unknown method"},
		{name: "unknown order", ord: "zigzag", wantErr: "unknown order"},
		{name: "unknown kernel", kernel: "simd", wantErr: "unknown kernel"},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			cfg, planned, err := Resolve(c.method, c.ord, c.kernel, c.parts, func() (*planner.Plan, error) {
				calls++
				return c.plan, nil
			})
			if calls != c.wantPlanCalls {
				t.Errorf("plan source called %d times, want %d", calls, c.wantPlanCalls)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := want{method: cfg.Method, order: cfg.Order, kernel: cfg.Kernel, tau: cfg.CoreThreshold}
			if planned != nil {
				got.total, got.plannedKernel = planned.Total, planned.Kernel
				if planned.Method != cfg.Method || planned.Order != cfg.Order {
					t.Errorf("planned %v+%v but config runs %v+%v", planned.Method, planned.Order, cfg.Method, cfg.Order)
				}
			}
			if got != c.want {
				t.Errorf("resolved %+v, want %+v", got, c.want)
			}
			if cfg.Parts != c.parts {
				t.Errorf("parts %d, want %d", cfg.Parts, c.parts)
			}
		})
	}
}

// TestResolvePlanError: a failing plan source (trid's unknown graph)
// surfaces unchanged, so callers can still match it.
func TestResolvePlanError(t *testing.T) {
	errNoGraph := errors.New("no such graph")
	_, _, err := Resolve("auto", "auto", "auto", 0, func() (*planner.Plan, error) { return nil, errNoGraph })
	if !errors.Is(err, errNoGraph) {
		t.Fatalf("err = %v, want the plan source's error", err)
	}
}
