package graph

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzFromSpec: no input may panic — malformed specs must error — and every
// accepted spec must have a canonical Name that reparses, under the same
// seed, to a graph of identical name and shape.
func FuzzFromSpec(f *testing.F) {
	for _, s := range []string{
		"torus2d:8x8", "torus:4x4x4", "hypercube:6", "regular:12:4",
		"rgg:12", "cycle:9", "path:9", "complete:8", "grid:4x5", "star:7",
		"", "x", "torus2d:8", "regular:12", "cycle:-3", "torus2d:axb",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 32 || hugeDims(spec) {
			return // bound the graph size, not the grammar
		}
		g, err := FromSpec(spec, 1)
		if err != nil {
			return
		}
		name := g.Name()
		again, err := FromSpec(name, 1)
		if err != nil {
			t.Fatalf("Name %q of accepted spec %q does not reparse: %v", name, spec, err)
		}
		if again.Name() != name {
			t.Fatalf("Name not canonical: %q -> %q", name, again.Name())
		}
		if again.NumNodes() != g.NumNodes() || again.NumArcs() != g.NumArcs() {
			t.Fatalf("round-trip of %q changed shape: %d->%d nodes, %d->%d arcs",
				spec, g.NumNodes(), again.NumNodes(), g.NumArcs(), again.NumArcs())
		}
	})
}

// hugeDims rejects specs whose numeric fields would build a graph too large
// for one fuzz iteration (hypercube's dimension is an exponent, so the cap
// must stay small). Non-numeric fields pass through: their error paths are
// cheap and worth fuzzing.
func hugeDims(spec string) bool {
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool {
		return r == ':' || r == 'x' || r == 'X'
	}) {
		digits := strings.TrimLeft(part, "+-")
		if digits == "" || strings.Trim(digits, "0123456789") != "" {
			continue
		}
		if len(digits) > 2 {
			return true
		}
		if v, err := strconv.Atoi(part); err == nil && v > 12 {
			return true
		}
	}
	return false
}

// FuzzFromEdges checks the linear-time CSR builder against a frozen copy of
// the sort-and-binary-search builder it replaced, on arbitrary deduplicated
// edge lists: any node count from 0 to 64 (so isolated nodes, n = 1 and
// edgeless graphs occur), either endpoint order, any edge order.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(5), []byte{0, 1, 1, 2, 4, 0, 3, 1})
	f.Add(uint8(64), []byte{63, 0, 0, 63, 7, 9, 9, 7, 12, 40})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw % 65)
		var edges [][2]int32
		seen := make(map[[2]int32]bool)
		for k := 0; n > 0 && k+1 < len(data); k += 2 {
			u, v := int32(int(data[k])%n), int32(int(data[k+1])%n)
			if u == v || seen[orient(u, v)] {
				continue
			}
			seen[orient(u, v)] = true
			edges = append(edges, [2]int32{u, v})
		}
		g, err := fromEdges("fuzz", n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		offsets, neighbors, mate := fromEdgesSorted(n, edges)
		if !slices.Equal(g.Offsets(), offsets) || !slices.Equal(g.Arcs(), neighbors) ||
			!slices.Equal(g.MateIndex(), mate) {
			t.Fatalf("n=%d edges=%v: CSR differs from the sorting builder", n, edges)
		}
	})
}

// fromEdgesSorted is the CSR builder fromEdges replaced, kept as the
// fuzz oracle: scatter the arcs, sort each adjacency list, then find every
// mate by binary search in the head's list.
func fromEdgesSorted(n int, edges [][2]int32) (offsets, neighbors, mate []int32) {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	neighbors = make([]int32, 2*len(edges))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	for i := 0; i < n; i++ {
		s := neighbors[offsets[i]:offsets[i+1]]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	mate = make([]int32, 2*len(edges))
	for i := 0; i < n; i++ {
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := neighbors[a]
			lo := offsets[j]
			s := neighbors[lo:offsets[j+1]]
			mate[a] = lo + int32(sort.Search(len(s), func(x int) bool { return s[x] >= int32(i) }))
		}
	}
	return offsets, neighbors, mate
}
