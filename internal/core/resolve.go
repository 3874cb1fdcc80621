package core

import (
	"fmt"
	"strings"

	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
)

// Planned reports the planner's part in a resolved query: the priced
// (method, order) candidate it runs, and whether its kernel is the
// plan's priced kernel choice.
type Planned struct {
	planner.Candidate
	Kernel bool
}

// Resolve turns a query as the front-ends take it — method, order and
// kernel names, each "" or "auto" for the default, and a partition
// count — into the Config that runs it. It sets Method, Order, Kernel,
// CoreThreshold and Parts; the caller fills in the rest. plan supplies
// the graph's cost plan and is called only when the query needs it.
// Planned is nil unless the planner chose the method and order.
//
// The (method, order) table:
//
//	parts  method  order   runs
//	0      auto    auto    the plan's predicted-cheapest pair
//	0      auto    <name>  the plan's cheapest method under that order;
//	                       the degenerate order is rejected, since
//	                       eq. (50) cannot price it from the degree
//	                       distribution (§7.5)
//	0      <name>  auto    the paper-optimal order for the method
//	                       (Corollaries 1–2, Recommended)
//	0      <name>  <name>  exactly as named
//	> 0    auto    auto    the partitioned E2 block merge, descending
//	> 0    auto    <name>  the partitioned E2 block merge, that order
//	> 0    <name>  any     rejected: the partitioned sweep is always E2
//	< 0    any     any     rejected
//
// Kernel auto resolves to the plan's priced kernel and core threshold
// only when the planner chose the method and it is a scanning-edge
// iterator; the other families do no list intersection, so the
// adaptive default already costs nothing there. Every other kernel
// name, and auto on every other query, runs as named. Kernels change
// only speed: the triangles and every Stats meter are kernel-invariant.
func Resolve(methodName, orderName, kernelName string, parts int, plan func() (*planner.Plan, error)) (Config, *Planned, error) {
	cfg := Config{Parts: parts}
	orderAuto := isAuto(orderName)
	if !orderAuto {
		k, err := order.ParseKind(orderName)
		if err != nil {
			return Config{}, nil, err
		}
		cfg.Order = k
	}
	kern, err := listing.ParseKernel(kernelName)
	if err != nil {
		return Config{}, nil, err
	}
	cfg.Kernel = kern
	var planned *Planned
	switch {
	case parts < 0:
		return Config{}, nil, fmt.Errorf("negative parts %d", parts)
	case parts > 0:
		if !isAuto(methodName) {
			return Config{}, nil, fmt.Errorf("parts > 0 uses the partitioned E2 block sweep; method %q cannot be combined with it", methodName)
		}
		cfg.Method = listing.E2
		if orderAuto {
			cfg.Order = order.KindDescending
		}
	case isAuto(methodName):
		p, err := plan()
		if err != nil {
			return Config{}, nil, err
		}
		c := p.Best()
		if !orderAuto {
			var ok bool
			if c, ok = p.BestUnder(cfg.Order); !ok {
				return Config{}, nil, fmt.Errorf("method auto cannot plan order %q: its cost is not predictable from the degree distribution; name a method explicitly", orderName)
			}
		}
		cfg.Method, cfg.Order = c.Method, c.Order
		planned = &Planned{Candidate: c}
		if kern == listing.KernelAuto && c.Method.Family() == listing.ScanningEdgeIterator {
			cfg.Kernel, cfg.CoreThreshold = p.Kernel.Kernel, p.Kernel.CoreThreshold
			planned.Kernel = true
		}
	default:
		m, err := listing.ParseMethod(methodName)
		if err != nil {
			return Config{}, nil, err
		}
		cfg.Method = m
		if orderAuto {
			cfg.Order = Recommended(m)
		}
	}
	return cfg, planned, nil
}

func isAuto(name string) bool { return name == "" || strings.EqualFold(name, "auto") }
