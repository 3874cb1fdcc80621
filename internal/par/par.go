// Package par is the deterministic-parallelism substrate shared by the
// preprocessing pipeline (order, digraph) and the harnesses built on
// top of it. Every helper here follows one discipline: work is split
// into contiguous index ranges fixed by (n, workers) alone, each range
// writes only slots it owns, and reductions merge shard results in
// shard order — so results are bitwise identical at every worker count
// and safe under the race detector by construction.
//
// All helpers run inline on the caller's goroutine when workers <= 1
// (or the input is too small to split), so serial callers pay no
// goroutine or synchronization cost.
package par

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Workers resolves a requested worker count: values below 1 select
// GOMAXPROCS.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ShardCount returns the number of shards Ranges and Shards will use
// for n items and the requested worker count: min(workers, n), at
// least 1. Callers size per-shard accumulators with it.
func ShardCount(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// shardBounds returns the half-open range of shard s out of p over n
// items. Boundaries depend only on (n, p), never on scheduling.
func shardBounds(n, p, s int) (lo, hi int) {
	return n * s / p, n * (s + 1) / p
}

// Ranges splits [0, n) into ShardCount(n, workers) near-equal
// contiguous ranges and runs body(lo, hi) on each concurrently,
// blocking until all return. With one shard, body runs inline.
func Ranges(n, workers int, body func(lo, hi int)) {
	Shards(n, workers, func(_, lo, hi int) { body(lo, hi) })
}

// Shards is Ranges passing the shard index as well, for per-shard
// accumulators: body(s, lo, hi) with 0 <= s < ShardCount(n, workers).
// Results must not depend on s — only scratch reuse and reduction
// slots may.
func Shards(n, workers int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	p := ShardCount(n, workers)
	if p == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		lo, hi := shardBounds(n, p, s)
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			body(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
}

// WeightedRanges is Ranges over the len(cum)-1 items whose cumulative
// weight is cum (monotone non-decreasing, cum[i] = weight of items
// [0, i)): range boundaries land at near-equal weight, not count, so
// skewed items (a few huge adjacency lists) cannot serialize the
// sweep. Boundaries depend only on (cum, workers).
func WeightedRanges(cum []int64, workers int, body func(lo, hi int)) {
	n := len(cum) - 1
	if n <= 0 {
		return
	}
	p := ShardCount(n, workers)
	total := cum[n] - cum[0]
	if p == 1 || total <= 0 {
		Ranges(n, p, body)
		return
	}
	bounds := make([]int, p+1)
	bounds[p] = n
	for s := 1; s < p; s++ {
		target := cum[0] + total*int64(s)/int64(p)
		i, _ := slices.BinarySearch(cum, target)
		if i > n {
			i = n
		}
		if i < bounds[s-1] {
			i = bounds[s-1]
		}
		bounds[s] = i
	}
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// prefixCutoff is the slice length below which a blocked parallel scan
// cannot beat the straight loop (the scan reads each element twice).
const prefixCutoff = 2048

// PrefixSum replaces a[i] with a[0]+...+a[i] in place. With multiple
// workers it runs the classic blocked scan — parallel per-block
// inclusive sums, a serial exclusive scan over the block totals, then
// a parallel rebase — whose int64 additions make the result exactly
// equal to the serial loop's.
func PrefixSum(a []int64, workers int) {
	n := len(a)
	p := ShardCount(n, workers)
	if p == 1 || n < prefixCutoff {
		for i := 1; i < n; i++ {
			a[i] += a[i-1]
		}
		return
	}
	sums := make([]int64, p)
	Shards(n, p, func(s, lo, hi int) {
		for i := lo + 1; i < hi; i++ {
			a[i] += a[i-1]
		}
		sums[s] = a[hi-1]
	})
	var base int64
	for s := range sums {
		sums[s], base = base, base+sums[s]
	}
	Shards(n, p, func(s, lo, hi int) {
		if b := sums[s]; b != 0 {
			for i := lo; i < hi; i++ {
				a[i] += b
			}
		}
	})
}

// RangeError reports a value outside [0, N) found by CheckBijection.
type RangeError struct {
	Index int   // position of the offending value
	Label int32 // the value itself
	N     int   // the required range [0, N)
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("par: value %d at index %d out of range [0,%d)", e.Label, e.Index, e.N)
}

// DupError reports a value assigned twice where a bijection was
// required.
type DupError struct {
	Label int32 // the duplicated value
}

func (e *DupError) Error() string {
	return fmt.Sprintf("par: value %d assigned twice", e.Label)
}

// CheckBijection reports an error unless vals is a bijection on
// [0, len(vals)): every value in range, none repeated. The parallel
// path builds one bitset per shard and merges them in shard order;
// with no duplicates, len(vals) in-range values must populate every
// bit, so range + duplicate checks suffice. Error selection is
// deterministic: the lowest offending index for range errors, the
// lowest duplicated label otherwise.
func CheckBijection(vals []int32, workers int) error {
	n := len(vals)
	words := (n + 63) / 64
	p := ShardCount(n, workers)
	if p == 1 {
		seen := make([]uint64, words)
		for i, v := range vals {
			if v < 0 || int(v) >= n {
				return &RangeError{Index: i, Label: v, N: n}
			}
			w, b := int(v)>>6, uint64(1)<<(uint32(v)&63)
			if seen[w]&b != 0 {
				return &DupError{Label: v}
			}
			seen[w] |= b
		}
		return nil
	}

	shards := make([][]uint64, p)
	badIdx := make([]int, p)     // first out-of-range index per shard, -1 if none
	shardDup := make([]int64, p) // lowest intra-shard duplicate label, -1 if none
	Shards(n, p, func(s, lo, hi int) {
		badIdx[s], shardDup[s] = -1, -1
		set := make([]uint64, words)
		for i := lo; i < hi; i++ {
			v := vals[i]
			if v < 0 || int(v) >= n {
				badIdx[s] = i
				return
			}
			w, b := int(v)>>6, uint64(1)<<(uint32(v)&63)
			if set[w]&b != 0 {
				if l := int64(v); shardDup[s] < 0 || l < shardDup[s] {
					shardDup[s] = l
				}
			}
			set[w] |= b
		}
		shards[s] = set
	})
	bad := -1
	for _, i := range badIdx {
		if i >= 0 && (bad < 0 || i < bad) {
			bad = i
		}
	}
	if bad >= 0 {
		return &RangeError{Index: bad, Label: vals[bad], N: n}
	}

	// Cross-shard merge over disjoint word ranges; each merge shard
	// tracks its lowest colliding bit.
	mergeDup := make([]int64, ShardCount(words, p))
	Shards(words, p, func(s, lo, hi int) {
		low := int64(-1)
		for k := lo; k < hi; k++ {
			acc := uint64(0)
			for _, set := range shards {
				if c := acc & set[k]; c != 0 {
					if l := int64(k)<<6 + int64(bits.TrailingZeros64(c)); low < 0 || l < low {
						low = l
					}
				}
				acc |= set[k]
			}
		}
		mergeDup[s] = low
	})
	dup := int64(-1)
	for _, l := range append(mergeDup, shardDup...) {
		if l >= 0 && (dup < 0 || l < dup) {
			dup = l
		}
	}
	if dup >= 0 {
		return &DupError{Label: int32(dup)}
	}
	return nil
}
