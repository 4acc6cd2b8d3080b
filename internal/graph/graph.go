// Package graph provides the undirected-graph substrate for the radio
// network simulator: a compact adjacency representation, generators for the
// graph families used throughout the paper's analysis (arbitrary G(n,p),
// unit-disk sensor fields, the lower-bound matching construction, …), and
// checkers for the maximal-independent-set invariants.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1. The zero value is
// an empty graph on zero vertices; use New to create a graph with vertices.
//
// Graph is not safe for concurrent mutation, but is safe for concurrent
// reads once construction is complete (the simulator relies on this).
type Graph struct {
	n     int
	adj   [][]int
	edges int
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error, as is any endpoint outside [0, n).
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

// FromEdges returns the graph on n vertices with the given edges. The
// result, or the first error, is that of New(n) followed by one AddEdge per
// edge in order: every row lists its neighbours in edge order, which
// order-sensitive consumers (the linear MIS breaks ties by neighbour
// order) depend on. It counts degrees first and carves all rows out of one
// backing array instead of growing each row edge by edge. A list with a
// bad edge is rebuilt one AddEdge at a time, which names the first one.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	deg := make([]int, g.n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
			return addEach(g, edges)
		}
		deg[u]++
		deg[v]++
	}
	nbr := make([]int, 2*len(edges))
	off := 0
	for v, d := range deg {
		if d > 0 {
			// The full slice expression caps each row, so a later AddEdge
			// reallocates it rather than writing into the next row.
			g.adj[v] = nbr[off : off : off+d]
			off += d
		}
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	// A repeated edge shows as a repeated neighbour in a row.
	mark := deg
	clear(mark)
	for v, row := range g.adj {
		for _, w := range row {
			if mark[w] == v+1 {
				return addEach(New(n), edges)
			}
			mark[w] = v + 1
		}
	}
	g.edges = len(edges)
	return g, nil
}

// addEach adds edges to g one AddEdge at a time and stops at the first
// error.
func addEach(g *Graph, edges [][2]int) (*Graph, error) {
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// mustAddEdge is used by generators whose construction cannot produce
// invalid edges; an error here is a generator bug.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}

// HasEdge reports whether {u, v} is an edge. Out-of-range vertices have no
// edges.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	// Scan the shorter list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree over all vertices (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// AvgDegree returns the average degree (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.n)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = g.edges
	for v, a := range g.adj {
		c.adj[v] = append([]int(nil), a...)
	}
	return c
}

// SortAdjacency sorts every adjacency list in increasing order. Generators
// call this so that iteration order — and hence the behaviour of seeded
// simulations — is canonical regardless of construction order.
func (g *Graph) SortAdjacency() {
	for _, a := range g.adj {
		sort.Ints(a)
	}
}

// InducedSubgraph returns the subgraph induced by the vertex set keep
// (keep[v] true ⇔ v kept), along with a mapping orig such that vertex i of
// the subgraph corresponds to vertex orig[i] of g.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int) {
	if len(keep) != g.n {
		panic(fmt.Sprintf("graph: keep mask has length %d, want %d", len(keep), g.n))
	}
	orig := make([]int, 0, g.n)
	index := make([]int, g.n)
	for v := range index {
		index[v] = -1
	}
	for v := 0; v < g.n; v++ {
		if keep[v] {
			index[v] = len(orig)
			orig = append(orig, v)
		}
	}
	sub := New(len(orig))
	for _, v := range orig {
		for _, w := range g.adj[v] {
			if w > v && keep[w] {
				sub.mustAddEdge(index[v], index[w])
			}
		}
	}
	sub.SortAdjacency()
	return sub, orig
}

// Validate checks internal consistency (symmetric adjacency, no self-loops,
// no duplicates, correct edge count). Generators are tested against it.
func (g *Graph) Validate() error {
	seen := make(map[[2]int]bool, g.edges)
	half := 0
	for v, a := range g.adj {
		dup := make(map[int]bool, len(a))
		for _, w := range a {
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if w < 0 || w >= g.n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if dup[w] {
				return fmt.Errorf("graph: duplicate neighbor %d of %d", w, v)
			}
			dup[w] = true
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
			key := [2]int{min(v, w), max(v, w)}
			seen[key] = true
			half++
		}
	}
	if half != 2*g.edges {
		return fmt.Errorf("graph: adjacency size %d inconsistent with %d edges", half, g.edges)
	}
	if len(seen) != g.edges {
		return fmt.Errorf("graph: %d distinct edges found, recorded %d", len(seen), g.edges)
	}
	return nil
}

// Edges returns all edges as pairs {u, v} with u < v, in sorted order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for v, a := range g.adj {
		for _, w := range a {
			if v < w {
				out = append(out, [2]int{v, w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.n, g.edges, g.MaxDegree())
}
