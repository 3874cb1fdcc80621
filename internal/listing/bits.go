package listing

import (
	"math/bits"

	"trilist/internal/digraph"
)

// DefaultBitRowBudget bounds the total bytes of packed bit rows
// KernelHybrid may build for one run. The budget turns the core
// threshold into a memory/speed dial: rows are granted to the
// highest-degree vertices first, so when the requested threshold would
// overflow the budget it is raised until the core fits — core size
// n·P(D ≥ τ) times the ⌈n/64⌉-word row size must stay under budget.
// The planner applies the same constraint to the fitted degree
// distribution when it prices kernel=auto.
const DefaultBitRowBudget = 64 << 20

// bitAdj is the shared read-only packed-bitset adjacency for the
// high-degree core: every vertex whose remote-side degree reaches the
// threshold gets its full side-adjacency encoded as an n-bit row
// (⌈n/64⌉ words, bit v ⇔ v is a neighbor). Rows are built once per run
// in methodSweep and read concurrently by every worker.
//
// Rows deliberately span all n vertices rather than a compacted
// core-index space: SEI windows and prefix/suffix remote trims are
// value-contiguous ranges of sorted lists, so intersecting a window
// against a full row is exact after clamping to the combined value
// range — and set bits decode directly to vertex ids in ascending
// order, preserving the merge kernel's emission order.
type bitAdj struct {
	thresh int32      // effective threshold after the budget clamp
	rows   [][]uint64 // rows[v] non-nil ⇔ v is core
}

// remoteSide returns the adjacency side whose lists appear as win's
// remote argument under SEI method m: Out for E1/E2/E6, In for
// E3/E4/E5 (Table 1 — the remote list is always a sublist of one fixed
// side of the second visited node).
func remoteSide(o *digraph.Oriented, m Method) (deg func(int32) int64, adj func(int32) []int32) {
	switch m {
	case E1, E2, E6:
		return o.OutDeg, o.Out
	default:
		return o.InDeg, o.In
	}
}

// fitThreshold raises τ until the core fits the row budget:
// the smallest τ' ≥ τ with count(side degree ≥ τ') rows under budget.
// hist[d] counts vertices of side degree d.
func fitThreshold(hist []int64, tau int32, rowBytes, budget int64) int32 {
	if tau < 1 {
		tau = 1
	}
	maxRows := budget / rowBytes
	if rowBytes == 0 {
		maxRows = int64(len(hist))
	}
	// Suffix count of vertices at or above each degree.
	count := int64(0)
	for d := len(hist) - 1; d >= int(tau); d-- {
		count += hist[d]
	}
	for int(tau) < len(hist) && count > maxRows {
		count -= hist[tau]
		tau++
	}
	return tau
}

// buildBitAdj packs the remote-side core rows for method m. A
// threshold below 1 is treated as 1 (every non-isolated vertex is a
// core candidate); the budget clamp then decides the effective τ.
func buildBitAdj(o *digraph.Oriented, m Method, thresh int32, budget int64) *bitAdj {
	n := o.NumNodes()
	deg, adj := remoteSide(o, m)
	words := (n + 63) / 64
	rowBytes := int64(words) * 8
	maxd := int64(0)
	for v := int32(0); v < int32(n); v++ {
		if d := deg(v); d > maxd {
			maxd = d
		}
	}
	hist := make([]int64, maxd+1)
	for v := int32(0); v < int32(n); v++ {
		hist[deg(v)]++
	}
	ba := &bitAdj{thresh: fitThreshold(hist, thresh, rowBytes, budget), rows: make([][]uint64, n)}
	core := int64(0)
	for v := int32(0); v < int32(n); v++ {
		if deg(v) >= int64(ba.thresh) {
			core++
		}
	}
	backing := make([]uint64, core*int64(words))
	next := int64(0)
	for v := int32(0); v < int32(n); v++ {
		if deg(v) < int64(ba.thresh) {
			continue
		}
		row := backing[next*int64(words) : (next+1)*int64(words) : (next+1)*int64(words)]
		next++
		for _, u := range adj(v) {
			row[u>>6] |= 1 << uint(u&63)
		}
		ba.rows[v] = row
	}
	return ba
}

// spanWords returns how many 64-bit words the bit path would touch for
// this window pair: the combined value range of the two sorted lists,
// rounded out to word boundaries. Any common element is ≥ both minima
// and ≤ both maxima, so clamping to [max(min), min(max)] loses nothing;
// the hybrid kernel compares this against the merge volume to decide
// per pair whether word-parallel AND beats the list scan. Both lists
// must be non-empty.
func spanWords(local, remote []int32) int {
	lo := local[0]
	if remote[0] > lo {
		lo = remote[0]
	}
	hi := local[len(local)-1]
	if r := remote[len(remote)-1]; r < hi {
		hi = r
	}
	if lo > hi {
		return 0
	}
	return int(hi>>6) - int(lo>>6) + 1
}

// bitWin intersects the window base[alo:ahi] against the owner's packed
// row by word-wise AND + OnesCount/TrailingZeros over the combined
// value range, emitting matches in ascending order. The base bitset
// holds the anchor's full base list, and the window is a positional —
// hence value-contiguous — slice of it, so clamping to
// [max(local₀, remote₀), min(localₗₐₛₜ, remoteₗₐₛₜ)] makes the masked
// AND exact even though the row encodes the owner's untrimmed side
// adjacency (prefix/suffix trims are value-contiguous too). Returns the
// merge-equivalent comparison count via mergeComps, keeping
// Stats.Comparisons bitwise kernel-invariant. Both lists must be
// non-empty.
func (it *intersector) bitWin(alo, ahi int, row []uint64, remote []int32, emit func(int32)) int64 {
	it.ensureBitStamp()
	local := it.base[alo:ahi]
	lo := local[0]
	if remote[0] > lo {
		lo = remote[0]
	}
	hi := local[len(local)-1]
	if r := remote[len(remote)-1]; r < hi {
		hi = r
	}
	var matches int64
	if lo <= hi {
		base := it.ar.bits
		w0, w1 := int(lo>>6), int(hi>>6)
		loMask := ^uint64(0) << uint(lo&63)
		hiMask := ^uint64(0) >> uint(63-(hi&63))
		for w := w0; w <= w1; w++ {
			x := base[w] & row[w]
			if w == w0 {
				x &= loMask
			}
			if w == w1 {
				x &= hiMask
			}
			for x != 0 {
				emit(int32(w<<6) + int32(bits.TrailingZeros64(x)))
				matches++
				x &= x - 1
			}
		}
	}
	return mergeComps(local, remote, matches)
}
