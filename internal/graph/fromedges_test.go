package graph

import (
	"slices"
	"testing"
)

// addEdges is the reference build FromEdges must match: New(n) plus one
// AddEdge per edge, stopping at the first error.
func addEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameRows fails unless got and want have the same N, M and every row in
// the same order.
func sameRows(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("row %d = %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// checkFromEdges builds edges both ways and fails unless they agree; it
// returns FromEdges's graph, or nil when both builds failed.
func checkFromEdges(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	want, wantErr := addEdges(n, edges)
	got, err := FromEdges(n, edges)
	if errText(err) != errText(wantErr) {
		t.Fatalf("FromEdges(%d, %v) error = %q, AddEdge build gives %q", n, edges, errText(err), errText(wantErr))
	}
	if err != nil {
		if got != nil {
			t.Fatalf("FromEdges(%d, %v) returned a graph with error %q", n, edges, err)
		}
		return nil
	}
	sameRows(t, got, want)
	return got
}

// checkAddAfter adds {u, v} to g, which FromEdges built, and fails if that
// changed any row but its endpoints' or disagrees with the same AddEdge on
// a copy.
func checkAddAfter(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	ref := g.Clone()
	before := ref.Clone()
	if errText(g.AddEdge(u, v)) != errText(ref.AddEdge(u, v)) {
		t.Fatalf("AddEdge(%d,%d) after FromEdges disagrees with AddEdge on a copy", u, v)
	}
	for w := 0; w < g.N(); w++ {
		if w != u && w != v && !slices.Equal(g.Neighbors(w), before.Neighbors(w)) {
			t.Fatalf("AddEdge(%d,%d) changed row %d: %v, was %v", u, v, w, g.Neighbors(w), before.Neighbors(w))
		}
	}
	sameRows(t, g, ref)
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		err   string
	}{
		{name: "no edges", n: 3},
		{name: "negative n", n: -2},
		{name: "request order kept", n: 4, edges: [][2]int{{2, 3}, {0, 1}, {1, 2}}},
		{name: "star", n: 5, edges: [][2]int{{0, 4}, {0, 1}, {3, 0}, {0, 2}}},
		{name: "triangle and pendant", n: 4, edges: [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}},
		{name: "out of range", n: 2, edges: [][2]int{{0, 5}}, err: "graph: edge {0,5} out of range [0,2)"},
		{name: "negative endpoint", n: 2, edges: [][2]int{{0, 1}, {-1, 0}}, err: "graph: edge {-1,0} out of range [0,2)"},
		{name: "negative n with edge", n: -1, edges: [][2]int{{0, 0}}, err: "graph: edge {0,0} out of range [0,0)"},
		{name: "self-loop", n: 2, edges: [][2]int{{1, 1}}, err: "graph: self-loop at 1"},
		{name: "duplicate", n: 2, edges: [][2]int{{0, 1}, {1, 0}}, err: "graph: duplicate edge {1,0}"},
		{name: "duplicate before range", n: 3, edges: [][2]int{{0, 1}, {1, 0}, {0, 9}}, err: "graph: duplicate edge {1,0}"},
		{name: "range before duplicate", n: 3, edges: [][2]int{{0, 9}, {0, 1}, {1, 0}}, err: "graph: edge {0,9} out of range [0,3)"},
		{name: "duplicate before self-loop", n: 3, edges: [][2]int{{0, 1}, {0, 1}, {2, 2}}, err: "graph: duplicate edge {0,1}"},
		{name: "self-loop before duplicate", n: 3, edges: [][2]int{{2, 2}, {0, 1}, {0, 1}}, err: "graph: self-loop at 2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromEdges(tt.n, tt.edges); errText(err) != tt.err {
				t.Fatalf("error = %q, want %q", errText(err), tt.err)
			}
			g := checkFromEdges(t, tt.n, tt.edges)
			if g != nil && g.N() >= 2 {
				// Vertex 0's row is full; appending to it must not spill
				// into vertex 1's.
				checkAddAfter(t, g, 0, g.N()-1)
			}
		})
	}
}

func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 3, 1, 2, 2, 3, 3, 1})
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 1, 1, 5})
	f.Add(uint8(5), []byte{1, 2, 1, 1, 3, 3, 2, 4})
	f.Add(uint8(0), []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, n8 uint8, data []byte) {
		// n spans [-1, 14] and endpoints [-1, n+1], so range errors,
		// self-loops and duplicates all occur. The first two bytes pick
		// the edge added after the build.
		n := int(n8%16) - 1
		endpoint := func(b byte) int { return int(b)%(n+3) - 1 }
		if len(data) < 2 {
			return
		}
		u, v := endpoint(data[0]), endpoint(data[1])
		var edges [][2]int
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{endpoint(data[i]), endpoint(data[i+1])})
		}
		if g := checkFromEdges(t, n, edges); g != nil {
			checkAddAfter(t, g, u, v)
		}
	})
}
