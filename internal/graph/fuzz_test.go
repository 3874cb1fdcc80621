package graph

import (
	"bytes"
	"testing"
)

// FuzzReadBinary guards the binary reader against corrupt input:
// whatever bytes arrive, it must either return an error or a graph that
// passes Validate — never panic, never emit a malformed structure.
// `go test` runs the seed corpus; `go test -fuzz=FuzzReadBinary`
// explores. The text edge-list reader is ingest.ParseSNAP, fuzzed there.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid serialization and mutations of it.
	g, err := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("TRICSR\x00\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("binary payload accepted but invalid: %v", err)
		}
	})
}
