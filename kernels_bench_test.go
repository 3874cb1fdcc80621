// BenchmarkKernels compares the neighbor-intersection kernels (merge,
// bitmap, auto, hybrid) on the paper's two truncation regimes, and
// fails if any kernel's triangle count differs from merge's. The model
// cost is kernel-invariant by construction — these benches measure the
// constant-factor wall-clock freedom the kernels exploit. The
// per-kernel timings with medians and quartiles come from perfbench
// (`bash perfbench/run.sh`, metrics listing.E1.<kernel>.w1_ms).
//
// A kernel stays only while it wins somewhere. Median ms over 5×3
// reps at n = 30,000 (E1/E2): merge 49/49 root, 174/194 linear. The
// deleted gallop kernel was 1.4–1.5× slower than merge in all four
// cells (root 72/73, linear 240/276). The deleted bits kernel was
// 1.8–3.5× slower than bitmap on root E1, root E2 and linear E2; on
// linear E1 it tied bitmap and auto (150–176 ms), and hybrid beat all
// three there (126–156 ms).
package trilist_test

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
)

func BenchmarkKernels(b *testing.B) {
	for _, tc := range []struct {
		name  string
		trunc degseq.Truncation
	}{
		{"root", degseq.RootTruncation},
		{"linear", degseq.LinearTruncation},
	} {
		g := paretoGraph(b, 1.5, 30000, tc.trunc)
		o := orient(b, g, order.KindDescending)
		for _, m := range []listing.Method{listing.E1, listing.E2} {
			want := listing.Run(o, m, nil, listing.WithKernel(listing.KernelMerge)).Triangles
			for _, k := range listing.Kernels {
				b.Run(fmt.Sprintf("%s/%v/%v", tc.name, m, k), func(b *testing.B) {
					var tri int64
					for i := 0; i < b.N; i++ {
						tri = listing.Run(o, m, nil, listing.WithKernel(k)).Triangles
					}
					if tri != want {
						b.Fatalf("kernel %v found %d triangles, merge found %d", k, tri, want)
					}
				})
			}
		}
	}
}
