package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/stats"
)

// alpha is the Pareto tail index of every base graph: the paper's
// heavy-tailed regime with finite mean and infinite variance.
const alpha = 1.5

// shape names one base graph: gen.ParetoGraph with the paper's standard
// Pareto(α=1.5), n nodes, the given truncation and generator seed.
type shape struct {
	N     int
	Trunc degseq.Truncation
	Seed  uint64
}

func (s shape) key() string {
	return fmt.Sprintf("pareto-a%g-%s-n%d-s%d", alpha, s.Trunc, s.N, s.Seed)
}

// baseGraph returns the shape's graph, generating it on first use and
// caching it under dir, so repeat runs skip the 1–4 s generation. The
// second result is the time spent (generating or loading).
func baseGraph(dir string, s shape) (*graph.Graph, time.Duration, error) {
	t0 := time.Now()
	path := filepath.Join(dir, s.key()+".bin")
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		g, err := graph.ReadBinary(bufio.NewReader(f))
		if err != nil {
			return nil, 0, fmt.Errorf("reading cached graph %s: %w", path, err)
		}
		return g, time.Since(t0), nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, err
	}
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(alpha), s.N, s.Trunc, stats.NewRNGFromSeed(s.Seed))
	if err != nil {
		return nil, 0, err
	}
	if err := writeCached(path, g); err != nil {
		return nil, 0, err
	}
	return g, time.Since(t0), nil
}

// writeCached writes g atomically: concurrent runs sharing the cache see
// either no file or a whole one.
func writeCached(path string, g *graph.Graph) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".graph-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := graph.WriteBinary(w, g); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// relabel renders an isomorphic copy of g as SNAP text: node v becomes
// π(v) for a permutation π drawn from rng, and the edges are written in
// an rng-drawn order with rng-drawn endpoint order. Different draws give
// different bytes (and so a different content hash) for the same work.
func relabel(g *graph.Graph, rng *stats.RNG) []byte {
	n := g.NumNodes()
	perm := rng.Perm(n)
	edges := g.EdgeSlice()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var buf bytes.Buffer
	buf.Grow(len(edges) * 14)
	fmt.Fprintf(&buf, "# nodes %d edges %d\n", n, len(edges))
	line := make([]byte, 0, 32)
	for _, e := range edges {
		u, v := perm[e.U], perm[e.V]
		if rng.Bool(0.5) {
			u, v = v, u
		}
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		line = append(line, '\n')
		buf.Write(line)
	}
	return buf.Bytes()
}
