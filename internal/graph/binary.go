package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary CSR format, for graphs too large to re-parse from text each
// run: a fixed header followed by the raw offsets and neighbor arrays,
// all little-endian. Loading is a pair of bulk reads — two orders of
// magnitude faster than text parsing for multi-hundred-megabyte graphs.
//
//	magic   [8]byte  "TRICSR\x00\x01" (includes format version)
//	n       int64    number of nodes
//	m       int64    number of undirected edges
//	offsets (n+1) × int64
//	nbrs    2m × int32

var binaryMagic = [8]byte{'T', 'R', 'I', 'C', 'S', 'R', 0, 1}

// WriteBinary serializes the graph in binary CSR form.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("graph: writing magic: %w", err)
	}
	n := int64(g.NumNodes())
	m := g.NumEdges()
	if err := binary.Write(bw, binary.LittleEndian, n); err != nil {
		return fmt.Errorf("graph: writing n: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, m); err != nil {
		return fmt.Errorf("graph: writing m: %w", err)
	}
	if n > 0 {
		if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
			return fmt.Errorf("graph: writing offsets: %w", err)
		}
		if err := binary.Write(bw, binary.LittleEndian, g.nbrs); err != nil {
			return fmt.Errorf("graph: writing neighbors: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a binary CSR graph and validates its
// structural invariants before returning it (corrupt or truncated input
// is an error, never a malformed graph).
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not a TRICSR v1 file)", magic[:])
	}
	var n, m int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: reading n: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading m: %w", err)
	}
	if n < 0 || m < 0 || (n == 0 && m > 0) {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	const maxNodes = 1 << 31
	if n > maxNodes {
		return nil, fmt.Errorf("graph: n=%d exceeds int32 node IDs", n)
	}
	// A simple graph cannot exceed C(n, 2) edges; forged headers that
	// claim otherwise must not drive allocations.
	if maxM := n * (n - 1) / 2; m > maxM {
		return nil, fmt.Errorf("graph: header claims m=%d > n(n-1)/2 = %d", m, maxM)
	}
	g := &Graph{}
	if n > 0 {
		g.offsets = make([]int64, 0, min64(n+1, 1<<20))
		if err := readInt64s(br, &g.offsets, n+1); err != nil {
			return nil, fmt.Errorf("graph: reading offsets: %w", err)
		}
		nbrs32 := make([]int32, 0, min64(2*m, 1<<21))
		if err := readInt32s(br, &nbrs32, 2*m); err != nil {
			return nil, fmt.Errorf("graph: reading neighbors: %w", err)
		}
		g.nbrs = nbrs32
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return g, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// readInt64s appends `count` little-endian int64s to dst in bounded
// chunks: a header that promises more data than the stream holds fails
// after at most one chunk instead of pre-allocating the whole claim.
func readInt64s(r io.Reader, dst *[]int64, count int64) error {
	const chunk = 1 << 16
	buf := make([]byte, 8*chunk)
	for count > 0 {
		k := int64(chunk)
		if k > count {
			k = count
		}
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for i := int64(0); i < k; i++ {
			*dst = append(*dst, int64(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		count -= k
	}
	return nil
}

// readInt32s is the int32 counterpart of readInt64s.
func readInt32s(r io.Reader, dst *[]int32, count int64) error {
	const chunk = 1 << 17
	buf := make([]byte, 4*chunk)
	for count > 0 {
		k := int64(chunk)
		if k > count {
			k = count
		}
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return err
		}
		for i := int64(0); i < k; i++ {
			*dst = append(*dst, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		count -= k
	}
	return nil
}
