package par

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"trilist/internal/stats"
)

func TestShardsCoverDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 200} {
			hits := make([]int32, n)
			Shards(n, w, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestShardCountMatchesShards(t *testing.T) {
	for _, n := range []int{1, 5, 64} {
		for _, w := range []int{1, 2, 8, 100} {
			want := ShardCount(n, w)
			var calls int32
			maxShard := int32(-1)
			Shards(n, w, func(s, _, _ int) {
				atomic.AddInt32(&calls, 1)
				for {
					cur := atomic.LoadInt32(&maxShard)
					if int32(s) <= cur || atomic.CompareAndSwapInt32(&maxShard, cur, int32(s)) {
						break
					}
				}
			})
			if int(calls) != want {
				t.Fatalf("n=%d w=%d: %d shard calls, ShardCount says %d", n, w, calls, want)
			}
			if int(maxShard) != want-1 {
				t.Fatalf("n=%d w=%d: max shard index %d, want %d", n, w, maxShard, want-1)
			}
		}
	}
}

func TestWeightedRangesCoverDisjointly(t *testing.T) {
	rng := stats.NewRNGFromSeed(7)
	for _, n := range []int{0, 1, 2, 100} {
		for _, w := range []int{1, 2, 8} {
			cum := make([]int64, n+1)
			for i := 1; i <= n; i++ {
				wt := int64(rng.Uint64() % 5) // zero-weight items exercise empty ranges
				if i == n/2 {
					wt = 10_000 // one heavy item
				}
				cum[i] = cum[i-1] + wt
			}
			hits := make([]int32, n)
			WeightedRanges(cum, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: item %d covered %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestPrefixSumMatchesSerial(t *testing.T) {
	rng := stats.NewRNGFromSeed(11)
	for _, n := range []int{0, 1, 2, prefixCutoff - 1, prefixCutoff, prefixCutoff + 513, 3 * prefixCutoff} {
		orig := make([]int64, n)
		for i := range orig {
			orig[i] = int64(rng.Uint64()%1000) - 200
		}
		want := slices.Clone(orig)
		for i := 1; i < n; i++ {
			want[i] += want[i-1]
		}
		for _, w := range []int{1, 2, 3, 8} {
			got := slices.Clone(orig)
			PrefixSum(got, w)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d w=%d: PrefixSum diverges from serial scan", n, w)
			}
		}
	}
}

func TestCheckBijectionAccepts(t *testing.T) {
	rng := stats.NewRNGFromSeed(3)
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, w := range []int{1, 2, 8} {
			if err := CheckBijection(perm, w); err != nil {
				t.Fatalf("n=%d w=%d: valid permutation rejected: %v", n, w, err)
			}
		}
	}
}

func TestCheckBijectionRangeError(t *testing.T) {
	n := 300
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	perm[70] = int32(n) // out of range
	perm[250] = -1      // also out of range, higher index
	for _, w := range []int{1, 2, 8} {
		err := CheckBijection(perm, w)
		var re *RangeError
		if !errors.As(err, &re) {
			t.Fatalf("w=%d: want RangeError, got %v", w, err)
		}
		// Deterministic: the lowest offending index wins regardless of
		// worker count.
		if re.Index != 70 || re.Label != int32(n) || re.N != n {
			t.Fatalf("w=%d: got %+v, want index 70 label %d", w, re, n)
		}
	}
}

func TestCheckBijectionDupError(t *testing.T) {
	n := 300
	mk := func() []int32 {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		return perm
	}
	cases := []struct {
		name string
		mut  func([]int32)
		want int32
	}{
		// Duplicate within one shard at every worker count (adjacent).
		{"intra-shard", func(p []int32) { p[11] = p[10] }, 10},
		// Duplicate across shards (far apart indices).
		{"cross-shard", func(p []int32) { p[299] = p[0] }, 0},
		// Two duplicates; lowest label must win deterministically.
		{"lowest-wins", func(p []int32) { p[299] = p[150]; p[3] = p[2] }, 2},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 8} {
			perm := mk()
			tc.mut(perm)
			err := CheckBijection(perm, w)
			var de *DupError
			if !errors.As(err, &de) {
				t.Fatalf("%s w=%d: want DupError, got %v", tc.name, w, err)
			}
			if de.Label != tc.want {
				t.Fatalf("%s w=%d: duplicate label %d, want %d", tc.name, w, de.Label, tc.want)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
}
