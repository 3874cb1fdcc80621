package listing

import (
	"math/bits"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
)

func TestKernelStringAndParse(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
	}{
		{"", KernelAuto}, {"auto", KernelAuto}, {"AUTO", KernelAuto},
		{"merge", KernelMerge}, {"scan", KernelMerge},
		{"bitmap", KernelBitmap}, {"stamp", KernelBitmap},
		{"hybrid", KernelHybrid}, {"Hybrid", KernelHybrid},
	}
	for _, c := range cases {
		got, err := ParseKernel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// gallop and bits (and their aliases) name no kernel: pure
	// galloping and the pure bit tier never won a benchmark cell.
	for _, name := range []string{"quantum", "gallop", "galloping", "binary", "bits", "bitset"} {
		if _, err := ParseKernel(name); err == nil {
			t.Errorf("ParseKernel accepted %q", name)
		}
	}
	if want := []Kernel{KernelMerge, KernelBitmap, KernelAuto, KernelHybrid}; !slices.Equal(Kernels, want) {
		t.Errorf("Kernels = %v, want %v", Kernels, want)
	}
	for _, k := range Kernels {
		if k.String() == "" {
			t.Errorf("kernel %d has empty name", int(k))
		}
		back, err := ParseKernel(k.String())
		if err != nil || back != k {
			t.Errorf("round-trip %v -> %q -> %v, %v", k, k.String(), back, err)
		}
	}
	if Kernel(77).String() != "Kernel(77)" {
		t.Error("unknown kernel String wrong")
	}
}

func TestGallopSearch(t *testing.T) {
	list := []int32{2, 4, 4, 8, 16, 32, 64}
	// (value 4 twice is fine for the search even though adjacency lists
	// are duplicate-free: the contract is only "smallest i >= lo with
	// list[i] >= v".)
	cases := []struct {
		lo   int
		v    int32
		want int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 8, 3}, {0, 9, 4},
		{0, 64, 6}, {0, 65, 7}, {3, 2, 3}, {5, 40, 6}, {7, 0, 7},
	}
	for _, c := range cases {
		if got := gallopSearch(list, c.lo, c.v); got != c.want {
			t.Errorf("gallopSearch(lo=%d, v=%d) = %d, want %d", c.lo, c.v, got, c.want)
		}
	}
	// Exhaustive cross-check against linear scan.
	for lo := 0; lo <= len(list); lo++ {
		for v := int32(0); v <= 70; v++ {
			want := lo
			for want < len(list) && list[want] < v {
				want++
			}
			if got := gallopSearch(list, lo, v); got != want {
				t.Fatalf("gallopSearch(lo=%d, v=%d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// randomSortedList builds an ascending duplicate-free list from raw fuzz
// material, the shape adjacency lists have.
func randomSortedList(raw []byte, mod int32) []int32 {
	seen := make(map[int32]bool)
	for _, b := range raw {
		seen[int32(b)%mod] = true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMergeCompsMatchesActualMerge(t *testing.T) {
	// The closed form must equal the instrumented two-pointer merge on
	// every input — this is what makes Comparisons kernel-invariant.
	f := func(rawA, rawB []byte) bool {
		a := randomSortedList(rawA, 50)
		b := randomSortedList(rawB, 50)
		var matches int64
		actual := intersect(a, b, func(int32) { matches++ })
		return mergeComps(a, b, matches) == actual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Hand-picked boundary cases.
	for _, c := range []struct{ a, b []int32 }{
		{nil, nil},
		{[]int32{1}, nil},
		{[]int32{1, 3}, []int32{2}},
		{[]int32{1, 2, 3}, []int32{3}},
		{[]int32{5}, []int32{1, 2, 3}},
		{[]int32{1, 4}, []int32{2, 4}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}},
	} {
		var matches int64
		actual := intersect(c.a, c.b, func(int32) { matches++ })
		if got := mergeComps(c.a, c.b, matches); got != actual {
			t.Errorf("mergeComps(%v, %v) = %d, merge did %d", c.a, c.b, got, actual)
		}
	}
}

func TestGallopIntersectMatchesMerge(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		a := randomSortedList(rawA, 60)
		b := randomSortedList(rawB, 60)
		var viaMerge, viaGallop []int32
		intersect(a, b, func(v int32) { viaMerge = append(viaMerge, v) })
		gallopIntersect(a, b, func(v int32) { viaGallop = append(viaGallop, v) })
		if len(viaMerge) != len(viaGallop) {
			return false
		}
		for i := range viaMerge {
			if viaMerge[i] != viaGallop[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaStampAndMembership(t *testing.T) {
	a := getArena(10)
	defer putArena(a)
	a.stamp([]int32{1, 4, 7})
	for v := int32(0); v < 10; v++ {
		want := v == 1 || v == 4 || v == 7
		if a.member(v) != want {
			t.Errorf("member(%d) = %v after stamp {1,4,7}", v, a.member(v))
		}
	}
	// Re-stamping must invalidate the previous stamp without clearing.
	a.stamp([]int32{2})
	if a.member(1) || !a.member(2) {
		t.Error("re-stamp did not invalidate the previous epoch")
	}
	// Wrap path: force the epoch counter over the uint32 edge.
	a.cur = ^uint32(0) - 1
	a.stamp([]int32{3})
	a.stamp([]int32{5}) // this stamp wraps cur to 0 -> clears -> cur = 1
	if a.cur != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.cur)
	}
	if a.member(3) || !a.member(5) {
		t.Error("membership wrong across epoch wrap")
	}
	// ensure() must grow without losing the invariant.
	a.ensure(100)
	if a.member(50) {
		t.Error("grown arena reports stale membership")
	}
}

func TestAllKernelsEmitIdenticalTriangleSequence(t *testing.T) {
	// Stronger than set equality: every kernel must report the same
	// triangles in the same order (the paper's methods define a canonical
	// visit order; kernels must not perturb it, or cancelled prefixes and
	// streaming consumers would diverge).
	g := randomTestGraph(t, 17, 70, 420)
	for _, kind := range order.Kinds {
		o := orientBy(t, g, kind, 2)
		for _, m := range Methods {
			var ref []triKey
			refStats := Run(o, m, func(x, y, z int32) { ref = append(ref, triKey{x, y, z}) },
				WithKernel(KernelMerge))
			for _, k := range Kernels[1:] {
				var got []triKey
				s := Run(o, m, func(x, y, z int32) { got = append(got, triKey{x, y, z}) },
					WithKernel(k))
				if s != refStats {
					t.Fatalf("order %v method %v kernel %v: Stats %+v != merge %+v",
						kind, m, k, s, refStats)
				}
				if len(got) != len(ref) {
					t.Fatalf("order %v method %v kernel %v: %d triangles, merge %d",
						kind, m, k, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("order %v method %v kernel %v: triangle %d = %v, merge %v",
							kind, m, k, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestStatsInvariantAcrossKernelsAndWorkers(t *testing.T) {
	// The satellite property: Stats and triangle counts must be bitwise
	// identical across every kernel (including the bit-parallel tier)
	// and every worker count, on an ER workload and both of the paper's
	// truncation regimes.
	p := degseq.StandardPareto(1.5)
	workloads := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"er", func() *graph.Graph {
			g, err := gen.ErdosRenyi(600, 3600, rngFor(41))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"pareto-root", func() *graph.Graph {
			g, _, err := gen.ParetoGraph(p, 600, degseq.RootTruncation, rngFor(42))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"pareto-linear", func() *graph.Graph {
			g, _, err := gen.ParetoGraph(p, 600, degseq.LinearTruncation, rngFor(43))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, wl := range workloads {
		g := wl.build()
		o := orientBy(t, g, order.KindDescending, 1)
		for _, m := range Methods {
			ref := Run(o, m, nil, WithKernel(KernelMerge))
			if ref.Triangles == 0 {
				t.Fatalf("%s: test graph has no triangles", wl.name)
			}
			for _, k := range Kernels {
				for _, workers := range []int{1, 2, 8} {
					s := RunParallel(o, m, workers, nil, WithKernel(k))
					if s != ref {
						t.Fatalf("%s method %v kernel %v workers %d: Stats %+v != serial merge %+v",
							wl.name, m, k, workers, s, ref)
					}
				}
			}
		}
	}
}

func TestBitTierThresholdAndStats(t *testing.T) {
	p := degseq.StandardPareto(1.5)
	g, _, err := gen.ParetoGraph(p, 600, degseq.LinearTruncation, rngFor(7))
	if err != nil {
		t.Fatal(err)
	}
	o := orientBy(t, g, order.KindDescending, 1)
	m := E2
	ref := Run(o, m, nil, WithKernel(KernelMerge))
	// Threshold edge cases: auto, all-core (τ=1), mid, all-fringe (τ
	// beyond the max side degree), plus a one-byte row budget that
	// evicts every row (the fallback path) — Stats must never move.
	for _, tau := range []int32{0, 1, 3, maxSideDeg(o, m) + 1} {
		if s := Run(o, m, nil, WithKernel(KernelHybrid), WithCoreThreshold(tau)); s != ref {
			t.Fatalf("τ=%d: Stats %+v != merge %+v", tau, s, ref)
		}
	}
	if s := Run(o, m, nil, WithKernel(KernelHybrid), WithBitRowBudget(1)); s != ref {
		t.Fatalf("tight budget: Stats %+v != merge %+v", s, ref)
	}
}

// maxSideDeg returns the largest remote-side degree under method m.
func maxSideDeg(o *digraph.Oriented, m Method) int32 {
	deg, _ := remoteSide(o, m)
	maxd := int32(0)
	for v := int32(0); v < int32(o.NumNodes()); v++ {
		if d := int32(deg(v)); d > maxd {
			maxd = d
		}
	}
	return maxd
}

func TestBuildBitAdj(t *testing.T) {
	p := degseq.StandardPareto(1.5)
	g, _, err := gen.ParetoGraph(p, 600, degseq.LinearTruncation, rngFor(7))
	if err != nil {
		t.Fatal(err)
	}
	o := orientBy(t, g, order.KindDescending, 1)
	rowBytes := int64((o.NumNodes() + 63) / 64 * 8)
	for _, m := range []Method{E1, E4} {
		deg, adj := remoteSide(o, m)
		maxSide := maxSideDeg(o, m)
		for _, c := range []struct {
			tau    int32
			budget int64
		}{
			{0, DefaultBitRowBudget}, {1, DefaultBitRowBudget}, {3, DefaultBitRowBudget},
			{maxSide + 1, DefaultBitRowBudget}, {1, 1}, {1, 10 * rowBytes},
		} {
			ba := buildBitAdj(o, m, c.tau, c.budget)
			if ba.thresh < 1 || ba.thresh < c.tau {
				t.Fatalf("method %v τ=%d: effective threshold %d", m, c.tau, ba.thresh)
			}
			core := int64(0)
			for v := int32(0); v < int32(o.NumNodes()); v++ {
				row := ba.rows[v]
				if (row != nil) != (deg(v) >= int64(ba.thresh)) {
					t.Fatalf("method %v τ=%d: vertex %d (degree %d) row %v under effective τ %d",
						m, c.tau, v, deg(v), row != nil, ba.thresh)
				}
				if row == nil {
					continue
				}
				core++
				ones := 0
				for _, w := range row {
					ones += bits.OnesCount64(w)
				}
				if ones != len(adj(v)) {
					t.Fatalf("method %v: row of %d has %d bits, degree %d", m, v, ones, len(adj(v)))
				}
				for _, u := range adj(v) {
					if row[u>>6]&(1<<uint(u&63)) == 0 {
						t.Fatalf("method %v: row of %d misses neighbor %d", m, v, u)
					}
				}
			}
			if core*rowBytes > c.budget {
				t.Fatalf("method %v τ=%d budget %d: %d rows of %d bytes", m, c.tau, c.budget, core, rowBytes)
			}
			if c.tau == maxSide+1 && core != 0 {
				t.Fatalf("method %v τ=%d: %d rows above the max side degree", m, c.tau, core)
			}
			if c.tau == 1 && c.budget == DefaultBitRowBudget && core == 0 {
				t.Fatalf("method %v τ=1: no rows on a graph with edges", m)
			}
		}
	}
}

// fuzzGraph decodes arbitrary fuzz bytes into a small simple graph:
// byte 0 picks n in [1, 24], each following byte pair is an edge
// (u, v) mod n with self-loops dropped and duplicates deduped.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		data = []byte{3}
	}
	n := int(data[0]%24) + 1
	var edges []graph.Edge
	for i := 1; i+1 < len(data); i += 2 {
		u := int32(data[i]) % int32(n)
		v := int32(data[i+1]) % int32(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		panic(err) // decoder guarantees valid input
	}
	return g
}

func FuzzKernelsAgainstBruteForce(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 1, 2})                   // K3
	f.Add([]byte{1})                                     // single node, no edges
	f.Add([]byte{24, 0, 1, 1, 2, 2, 3, 3, 0})            // C4, triangle-free
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4})             // star
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}) // K4
	f.Add([]byte{10, 1, 2, 2, 3, 1, 3, 1, 1, 200, 7, 255, 255})
	// Dense core material for the bit-parallel kernels: K5 plus a
	// pendant, and a hub star with a triangle through the hub.
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5})
	f.Add([]byte{12, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		var brute []triKey
		BruteForce(g, func(x, y, z int32) { brute = append(brute, triKey{x, y, z}) })
		kinds := []order.Kind{order.KindAscending, order.KindDescending, order.KindUniform}
		for _, kind := range kinds {
			o := orientBy(t, g, kind, uint64(len(data)))
			// Map the brute-force set through the relabeling.
			want := make(map[triKey]bool, len(brute))
			for _, tri := range brute {
				k := triKey{o.Rank(tri[0]), o.Rank(tri[1]), o.Rank(tri[2])}
				sort.Slice(k[:], func(i, j int) bool { return k[i] < k[j] })
				want[k] = true
			}
			for _, m := range Methods {
				for _, kern := range Kernels {
					got := make(map[triKey]bool)
					s := Run(o, m, func(x, y, z int32) {
						k := triKey{x, y, z}
						if got[k] {
							t.Fatalf("order %v method %v kernel %v: duplicate %v", kind, m, kern, k)
						}
						if !(x < y && y < z) {
							t.Fatalf("order %v method %v kernel %v: unsorted %v", kind, m, kern, k)
						}
						got[k] = true
					}, WithKernel(kern))
					if int64(len(got)) != s.Triangles || len(got) != len(want) {
						t.Fatalf("order %v method %v kernel %v: %d triangles (stats %d), brute force %d",
							kind, m, kern, len(got), s.Triangles, len(want))
					}
					for k := range want {
						if !got[k] {
							t.Fatalf("order %v method %v kernel %v: missed %v", kind, m, kern, k)
						}
					}
				}
				if m.Family() != ScanningEdgeIterator {
					continue
				}
				// Bit-tier threshold edge cases (n ≤ 24, so τ=25 is
				// all-fringe, τ=1 all-core, τ=0 auto) plus a tiny row
				// budget that evicts everything: triangles and Stats
				// must match the merge kernel exactly.
				ref := Run(o, m, nil, WithKernel(KernelMerge))
				for _, tau := range []int32{0, 1, 2, 25} {
					got := make(map[triKey]bool)
					s := Run(o, m, func(x, y, z int32) { got[triKey{x, y, z}] = true },
						WithKernel(KernelHybrid), WithCoreThreshold(tau))
					if s != ref {
						t.Fatalf("order %v method %v τ=%d: Stats %+v != merge %+v", kind, m, tau, s, ref)
					}
					if len(got) != len(want) {
						t.Fatalf("order %v method %v τ=%d: %d triangles, brute force %d",
							kind, m, tau, len(got), len(want))
					}
					for k := range want {
						if !got[k] {
							t.Fatalf("order %v method %v τ=%d: missed %v", kind, m, tau, k)
						}
					}
				}
				if s := Run(o, m, nil, WithKernel(KernelHybrid), WithBitRowBudget(8)); s != ref {
					t.Fatalf("order %v method %v budget=8: Stats %+v != merge %+v", kind, m, s, ref)
				}
			}
		}
	})
}
