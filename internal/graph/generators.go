package graph

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"diffusionlb/internal/randx"
)

// torusName renders the canonical spec of a general torus, e.g.
// "torus:4x4x4", so FromSpec(g.Name()) round-trips.
func torusName(sides []int) string {
	parts := make([]string, len(sides))
	for d, s := range sides {
		parts[d] = strconv.Itoa(s)
	}
	return "torus:" + strings.Join(parts, "x")
}

// Torus2D returns the w×h two-dimensional torus: node (x, y) is adjacent to
// (x±1 mod w, y) and (x, y±1 mod h). This is the paper's primary benchmark
// topology (1000×1000 in Figure 1, 100×100 in Figures 7/8/15). Nodes are
// numbered row-major: id = y*w + x, so node 0 is the top-left corner used as
// the initially loaded node v0.
func Torus2D(w, h int) (*Graph, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graph: Torus2D(%d,%d): %w", w, h, ErrBadParameter)
	}
	return torus(fmt.Sprintf("torus2d:%dx%d", w, h), []int{w, h})
}

// Torus returns the d-dimensional torus with the given side lengths
// (Torus(10, 10, 10) is the 10×10×10 3-D torus). Sides of length 1
// contribute no edges; sides of length 2 contribute a single edge per pair.
func Torus(sides ...int) (*Graph, error) {
	if len(sides) == 0 {
		return nil, fmt.Errorf("graph: Torus needs at least one dimension: %w", ErrBadParameter)
	}
	for _, s := range sides {
		if s < 1 {
			return nil, fmt.Errorf("graph: Torus side %d: %w", s, ErrBadParameter)
		}
	}
	return torus(torusName(sides), sides)
}

// torus builds the torus with the given positive sides, numbering nodes
// with the first coordinate varying fastest.
func torus(name string, sides []int) (*Graph, error) {
	n := 1
	for _, s := range sides {
		if n > (1<<30)/s {
			return nil, ErrTooLarge
		}
		n *= s
	}
	coord := make([]int, len(sides))
	edges := make([][2]int32, 0, n*len(sides))
	for v := 0; v < n; v++ {
		stride := 1
		for d, s := range sides {
			// The wrap edge toward coordinate+1, generated once per edge.
			if s > 2 || (s == 2 && coord[d] == 0) {
				next := v + stride
				if coord[d] == s-1 {
					next -= s * stride
				}
				edges = append(edges, orient(int32(v), int32(next)))
			}
			stride *= s
		}
		for d := range coord { // advance to the coordinates of v+1
			if coord[d]++; coord[d] < sides[d] {
				break
			}
			coord[d] = 0
		}
	}
	return fromEdges(name, n, edges)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes, where nodes
// are adjacent iff their ids differ in exactly one bit. The paper uses
// dim = 20 (n = 2^20) in Figure 13.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 30 {
		return nil, fmt.Errorf("graph: Hypercube(%d): %w", dim, ErrBadParameter)
	}
	n := 1 << dim
	if int64(n)*int64(dim) > int64(1)<<31-2 {
		return nil, ErrTooLarge
	}
	edges := make([][2]int32, 0, n*dim/2)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << b)
			if v < u {
				edges = append(edges, [2]int32{int32(v), int32(u)})
			}
		}
	}
	return fromEdges(fmt.Sprintf("hypercube:%d", dim), n, edges)
}

// Cycle returns the cycle graph on n >= 3 nodes.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Cycle(%d): %w", n, ErrBadParameter)
	}
	return torus(fmt.Sprintf("cycle:%d", n), []int{n})
}

// Path returns the path graph on n >= 2 nodes.
func Path(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Path(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return fromEdges(fmt.Sprintf("path:%d", n), n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Complete(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	return fromEdges(fmt.Sprintf("complete:%d", n), n, edges)
}

// Star returns the star graph with one hub (node 0) and n-1 leaves.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: Star(%d): %w", n, ErrBadParameter)
	}
	edges := make([][2]int32, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int32{0, int32(i)})
	}
	return fromEdges(fmt.Sprintf("star:%d", n), n, edges)
}

// Grid2D returns the w×h grid (torus without wraparound), useful as a
// low-conductance test topology.
func Grid2D(w, h int) (*Graph, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("graph: Grid2D(%d,%d): %w", w, h, ErrBadParameter)
	}
	var edges [][2]int32
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, [2]int32{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, [2]int32{id(x, y), id(x, y+1)})
			}
		}
	}
	return fromEdges(fmt.Sprintf("grid:%dx%d", w, h), w*h, edges)
}

// Lollipop returns a clique of size k attached to a path of length n-k — a
// classic worst case for diffusion speed, used in tests as a slow-mixing
// contrast to expanders.
func Lollipop(k, n int) (*Graph, error) {
	if k < 3 || n <= k {
		return nil, fmt.Errorf("graph: Lollipop(%d,%d): %w", k, n, ErrBadParameter)
	}
	var edges [][2]int32
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	for i := k - 1; i+1 < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return fromEdges(fmt.Sprintf("lollipop-%d-%d", k, n), n, edges)
}

// orient returns the pair with the smaller id first.
func orient(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// RandomRegular returns a random d-regular simple graph on n nodes built with
// the configuration model [Wormald '99], the construction the paper uses for
// its "Random Graph (CM)" family (n = 10^6, d = floor(log2 n) = 19 in
// Figure 12). n*d must be even and d < n.
//
// The generator pairs stubs uniformly at random and then repairs self-loops
// and parallel edges by degree-preserving edge swaps with uniformly chosen
// partner edges, which keeps the graph exactly d-regular.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if n < 2 || d < 1 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d,%d): %w", n, d, ErrBadParameter)
	}
	if int64(n)*int64(d) > int64(1)<<31-2 {
		return nil, ErrTooLarge
	}
	rng := randx.New(seed)

	stubs := make([]int32, n*d)
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			stubs[i*d+k] = int32(i)
		}
	}
	// Fisher-Yates over the stub multiset.
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}

	// Pairs are accepted in order, the first copy of an edge winning; the
	// self-loops and later copies are bad pairs, repaired below. The edge
	// set is kept as rows: lower endpoint u's row, rows[u*d:][:fill[u]],
	// holds the higher endpoints of its edges, at most d as u has d stubs.
	// Filing every pair first and then finding the copies row by row
	// touches each row in a short loop, where checking each pair on arrival
	// would wait on one cache miss at a time.
	type edge = [2]int32
	m := len(stubs) / 2
	rows, fill := make([]int32, n*d), make([]int32, n)
	for i := 0; i < m; i++ {
		if e := orient(stubs[2*i], stubs[2*i+1]); e[0] != e[1] {
			rows[int(e[0])*d+int(fill[e[0]])] = e[1]
			fill[e[0]]++
		}
	}
	later := make([]bool, n*d) // row slots filed with a later copy of an edge
	for u := 0; u < n; u++ {
		row, kept := rows[u*d:][:fill[u]], 0
		for j, v := range row {
			if slices.Contains(row[:kept], v) {
				later[u*d+j] = true
				continue
			}
			row[kept] = v
			kept++
		}
		fill[u] = int32(kept)
	}
	filed := make([]int32, n) // per lower endpoint, the slot of its next pair
	edges := make([]edge, 0, m)
	var bad []edge
	for i := 0; i < m; i++ {
		e := orient(stubs[2*i], stubs[2*i+1])
		if e[0] != e[1] {
			slot := int(e[0])*d + int(filed[e[0]])
			filed[e[0]]++
			if !later[slot] {
				edges = append(edges, e)
				continue
			}
		}
		bad = append(bad, e)
	}

	// Repair pass: each bad pair (u,v) is resolved by picking a random good
	// edge (a,b) and rewiring to (u,a), (v,b) when both are new simple edges.
	const maxAttempts = 1 << 22
	attempts := 0
	row := func(u int32) []int32 { return rows[int(u)*d:][:fill[u]] }
	add := func(e edge) {
		rows[int(e[0])*d:][:d][fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	for len(bad) > 0 {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("graph: RandomRegular(%d,%d): repair did not converge", n, d)
		}
		e := bad[len(bad)-1]
		u, v := e[0], e[1]
		k := rng.IntN(len(edges))
		a, b := edges[k][0], edges[k][1]
		if rng.IntN(2) == 1 {
			a, b = b, a
		}
		e1, e2 := orient(u, a), orient(v, b)
		if u == a || v == b || e1 == e2 ||
			slices.Contains(row(e1[0]), e1[1]) || slices.Contains(row(e2[0]), e2[1]) {
			continue
		}
		// Commit: replace (a,b) with (u,a) and (v,b).
		r := row(edges[k][0])
		r[slices.Index(r, edges[k][1])] = r[len(r)-1]
		fill[edges[k][0]]--
		edges[k] = e1
		add(e1)
		add(e2)
		edges = append(edges, e2)
		bad = bad[:len(bad)-1]
	}
	return fromEdges(fmt.Sprintf("regular:%d:%d", n, d), n, edges)
}

// GeometricOptions configures RandomGeometric.
type GeometricOptions struct {
	// Radius is the connection radius. When not positive (0, negative or
	// NaN), the paper's default (log n)^(1/4) is used — right at the connectivity threshold, so the
	// construction patches remaining small components exactly as described
	// in Section VI-B.
	Radius float64
	// KeepDisconnected skips the component patch-up step.
	KeepDisconnected bool
}

// RandomGeometric places n nodes uniformly at random in the square
// [0, sqrt(n)]^2 and connects pairs within the connection radius, then (per
// the paper) connects every remaining small component to the closest node of
// the largest component. Coordinates are returned for visualization.
func RandomGeometric(n int, seed uint64, opts GeometricOptions) (*Graph, []Point, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("graph: RandomGeometric(%d): %w", n, ErrBadParameter)
	}
	r := opts.Radius
	if !(r > 0) {
		r = math.Pow(math.Log(float64(n)), 0.25)
	}
	side := math.Sqrt(float64(n))
	rng := randx.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}

	// Cell-bucketed neighbor search: cells of side r (coarser when r is
	// below about 1, so there are never many more cells than nodes), each
	// node checking the 3x3 block around its own cell. A counting sort over
	// the cells lists cell c's members, in ascending id order, at
	// members[cellStart[c]:cellStart[c+1]].
	cs := math.Max(r, side/math.Ceil(side))
	cells := int(side/cs) + 1
	cell := make([]int32, n)
	cellStart := make([]int32, cells*cells+1)
	for i, p := range pts {
		cx, cy := min(int(p.X/cs), cells-1), min(int(p.Y/cs), cells-1)
		cell[i] = int32(cy*cells + cx)
		cellStart[cell[i]]++
	}
	for c := 1; c < len(cellStart); c++ {
		cellStart[c] += cellStart[c-1]
	}
	members := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		cellStart[cell[i]]--
		members[cellStart[cell[i]]] = int32(i)
	}
	r2 := r * r
	var edges [][2]int32
	for i := 0; i < n; i++ {
		cx, cy := int(cell[i])%cells, int(cell[i])/cells
		for x := max(cx-1, 0); x <= min(cx+1, cells-1); x++ {
			for y := max(cy-1, 0); y <= min(cy+1, cells-1); y++ {
				c := y*cells + x
				for _, j := range members[cellStart[c]:cellStart[c+1]] {
					if j > int32(i) && pts[i].Dist2(pts[j]) <= r2 {
						edges = append(edges, [2]int32{int32(i), j})
					}
				}
			}
		}
	}

	g, err := fromEdges(fmt.Sprintf("rgg:%d", n), n, edges)
	if err != nil {
		return nil, nil, err
	}
	if opts.KeepDisconnected {
		return g, pts, nil
	}
	g, err = connectToGiant(g, pts, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, pts, nil
}

// connectToGiant implements the paper's patch-up: every component other than
// the largest is connected to its geometrically closest node in the largest
// component.
func connectToGiant(g *Graph, pts []Point, edges [][2]int32) (*Graph, error) {
	comp, count := g.ConnectedComponents()
	if count <= 1 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	giant := 0
	for c, s := range sizes {
		if s > sizes[giant] {
			giant = c
		}
	}
	giantNodes := make([]int32, 0, sizes[giant])
	for i, c := range comp {
		if c == int32(giant) {
			giantNodes = append(giantNodes, int32(i))
		}
	}
	members := make([][]int32, count)
	for i, c := range comp {
		if c != int32(giant) {
			members[c] = append(members[c], int32(i))
		}
	}
	for c := range members {
		if c == giant || len(members[c]) == 0 {
			continue
		}
		bestD := math.Inf(1)
		var bu, bv int32
		for _, u := range members[c] {
			for _, v := range giantNodes {
				if d := pts[u].Dist2(pts[v]); d < bestD {
					bestD, bu, bv = d, u, v
				}
			}
		}
		edges = append(edges, orient(bu, bv))
	}
	// Each patch edge joins a distinct component to the giant one, so it
	// duplicates neither an existing edge nor another patch edge. Patching
	// is part of the deterministic (spec, seed) construction, so the
	// patched graph keeps the canonical spec as its name.
	return fromEdges(g.Name(), g.NumNodes(), edges)
}

// Point is a 2-D coordinate used by the random geometric graph generator.
type Point struct{ X, Y float64 }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// ErdosRenyi returns G(n, p) conditioned on simplicity, as an auxiliary
// test topology; it is not used by the paper's evaluation but exercises the
// spectral machinery on irregular graphs.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	if n < 2 || p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi(%d,%g): %w", n, p, ErrBadParameter)
	}
	rng := randx.New(seed)
	var edges [][2]int32
	// Geometric skipping jumps straight from one edge's linear index to the
	// next, and the index only grows, so the row it falls in is carried
	// forward: O(n + |E|), expected O(n + n^2 p).
	if p == 0 {
		return fromEdges(fmt.Sprintf("gnp-n%d-p%g", n, p), n, edges)
	}
	logq := math.Log(1 - p)
	total := int64(n) * int64(n-1) / 2
	var idx int64 = -1
	var i, rowStart int64 // row i: the pairs (i, j > i), from linear index rowStart on
	for {
		var skip int64
		if p < 1 {
			skip = int64(math.Log(1-rng.Float64()) / logq)
		}
		idx += skip + 1
		if idx >= total {
			break
		}
		for idx-rowStart >= int64(n)-1-i {
			rowStart += int64(n) - 1 - i
			i++
		}
		j := i + 1 + idx - rowStart
		edges = append(edges, [2]int32{int32(i), int32(j)})
	}
	return fromEdges(fmt.Sprintf("gnp-n%d-p%g", n, p), n, edges)
}
