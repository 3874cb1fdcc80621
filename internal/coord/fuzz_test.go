package coord

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"trilist/internal/extmem"
)

// bodyRT answers every request with 200 and a fixed body.
type bodyRT []byte

func (b bodyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(string(b))),
		Request:    req,
	}, nil
}

// FuzzTripleResponse serves arbitrary bytes as a worker's triple
// response, in both request modes. The coordinator must return an
// error or a result that is consistent — count present and equal to
// the triangle list length when listing, no triangles when counting,
// no negative meter — and equal to what the bytes say. Never a panic,
// never a miscount handed to the commit loop.
func FuzzTripleResponse(f *testing.F) {
	f.Add([]byte(`{"count":1,"triangles":[[0,1,2]],"comparisons":3,"io":{"arcs_written":0,"arcs_read":9,"block_reads":3}}`), false)
	f.Add([]byte(`{"count":7,"comparisons":3,"io":{"arcs_written":0,"arcs_read":9,"block_reads":3}}`), true)
	f.Add([]byte(`{"triangles":[[0,1,2]],"comparisons":3,"io":{"arcs_read":9,"block_reads":3}}`), false)
	f.Add([]byte(`{"count":1,"triangles":[[0,1,2]]}`), true)
	f.Add([]byte(`{"count":-1,"comparisons":0,"io":{}}`), true)
	f.Add([]byte(`{"count":0,"triangles":[]}`), false)
	f.Add([]byte(`null`), false)
	f.Fuzz(func(t *testing.T, body []byte, countOnly bool) {
		c := newCluster(Options{
			Peers:  []string{"http://worker"},
			Client: &http.Client{Transport: bodyRT(body)},
		})
		out, err := c.doTriple(context.Background(), c.nodes[0], TripleRequest{Set: "s", Parts: 1, CountOnly: countOnly})
		if err != nil {
			return
		}
		switch {
		case countOnly && len(out.Triangles) != 0:
			t.Fatalf("count-only response accepted with %d triangles", len(out.Triangles))
		case !countOnly && out.Count != int64(len(out.Triangles)):
			t.Fatalf("listing response accepted with count %d and %d triangles", out.Count, len(out.Triangles))
		case out.Count < 0 || out.Comparisons < 0 || out.IO.ArcsRead < 0 || out.IO.BlockReads < 0:
			t.Fatalf("negative meter accepted: %+v", out)
		}
		var direct extmem.TripleResult
		if err := json.Unmarshal(body, &direct); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if !reflect.DeepEqual(out, direct) {
			t.Fatalf("accepted %+v, bytes say %+v", out, direct)
		}
	})
}
