package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// csrDigest fingerprints everything a generator hands the engines: the
// name and the offsets, neighbors and mate arrays, byte for byte.
func csrDigest(g *Graph) string {
	h := fnv.New64a()
	h.Write([]byte(g.Name()))
	var b [4]byte
	for _, arr := range [][]int32{g.Offsets(), g.Arcs(), g.MateIndex()} {
		binary.LittleEndian.PutUint32(b[:], uint32(len(arr)))
		h.Write(b[:])
		for _, v := range arr {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSpecs covers every FromSpec family, including the degenerate sides
// of the tori, the smallest and densest random regular graphs, and random
// geometric graphs at the threshold radius (patched up to connectivity).
var goldenSpecs = []string{
	"torus2d:7x5", "torus2d:2x5", "torus2d:1x4", "torus2d:32x32",
	"torus:4x3x2", "torus:5", "torus:1x6", "torus:2x2x2",
	"hypercube:1", "hypercube:6",
	"regular:2:1", "regular:10:3", "regular:12:4", "regular:64:19",
	"regular:1000:3", "regular:4096:8",
	"rgg:12", "rgg:400", "rgg:4096",
	"cycle:9", "path:9", "complete:8", "grid:4x5", "grid:1x2", "star:7",
}

// goldenBuilds returns the non-FromSpec constructions pinned per seed:
// unpatched and custom-radius geometric graphs, Erdős–Rényi and lollipops.
func goldenBuilds(seed uint64) map[string]func() (*Graph, error) {
	rgg := func(n int, opts GeometricOptions) func() (*Graph, error) {
		return func() (*Graph, error) {
			g, _, err := RandomGeometric(n, seed, opts)
			return g, err
		}
	}
	gnp := func(n int, p float64) func() (*Graph, error) {
		return func() (*Graph, error) { return ErdosRenyi(n, p, seed) }
	}
	return map[string]func() (*Graph, error){
		"rgg:400/keep":      rgg(400, GeometricOptions{KeepDisconnected: true}),
		"rgg:300/r=0.9":     rgg(300, GeometricOptions{Radius: 0.9}),
		"rgg:200/r=30/keep": rgg(200, GeometricOptions{Radius: 30, KeepDisconnected: true}),
		"gnp-60-0.2":        gnp(60, 0.2),
		"gnp-10-0":          gnp(10, 0),
		"gnp-10-1":          gnp(10, 1),
		"gnp-200-0.02":      gnp(200, 0.02),
		"gnp-1000-0.005":    gnp(1000, 0.005),
		"lollipop-4-10":     func() (*Graph, error) { return Lollipop(4, 10) },
		"lollipop-10-30":    func() (*Graph, error) { return Lollipop(10, 30) },
	}
}

// goldenCSR holds the digests recorded from the sort-and-binary-search
// builder and the map-based random regular and geometric generators.
var goldenCSR = map[string]string{
	"complete:8/seed=1":        "5b2f58ce0d9eedd9",
	"complete:8/seed=2":        "5b2f58ce0d9eedd9",
	"complete:8/seed=3":        "5b2f58ce0d9eedd9",
	"cycle:9/seed=1":           "5d76c17a83767251",
	"cycle:9/seed=2":           "5d76c17a83767251",
	"cycle:9/seed=3":           "5d76c17a83767251",
	"gnp-10-0/seed=1":          "394ba85ab7c9368e",
	"gnp-10-0/seed=2":          "394ba85ab7c9368e",
	"gnp-10-0/seed=3":          "394ba85ab7c9368e",
	"gnp-10-1/seed=1":          "11f2281e1bbedc2a",
	"gnp-10-1/seed=2":          "11f2281e1bbedc2a",
	"gnp-10-1/seed=3":          "11f2281e1bbedc2a",
	"gnp-1000-0.005/seed=1":    "d49d8a7ed2644e7a",
	"gnp-1000-0.005/seed=2":    "68b5a6efb67d31c7",
	"gnp-1000-0.005/seed=3":    "29bce27122f5f5f1",
	"gnp-200-0.02/seed=1":      "ab3f168b0dad50c0",
	"gnp-200-0.02/seed=2":      "b1b73b307837d945",
	"gnp-200-0.02/seed=3":      "5b01a4b4e635ae41",
	"gnp-60-0.2/seed=1":        "3663f26db2ebf253",
	"gnp-60-0.2/seed=2":        "93af928677ca4a4f",
	"gnp-60-0.2/seed=3":        "330726a3bfa1d82b",
	"grid:1x2/seed=1":          "d6163b5ed16261be",
	"grid:1x2/seed=2":          "d6163b5ed16261be",
	"grid:1x2/seed=3":          "d6163b5ed16261be",
	"grid:4x5/seed=1":          "5fde35b5f959694e",
	"grid:4x5/seed=2":          "5fde35b5f959694e",
	"grid:4x5/seed=3":          "5fde35b5f959694e",
	"hypercube:1/seed=1":       "9e3737a8260d6631",
	"hypercube:1/seed=2":       "9e3737a8260d6631",
	"hypercube:1/seed=3":       "9e3737a8260d6631",
	"hypercube:20/seed=1":      "fc63fadec2054e85",
	"hypercube:6/seed=1":       "dffb163af4b22f35",
	"hypercube:6/seed=2":       "dffb163af4b22f35",
	"hypercube:6/seed=3":       "dffb163af4b22f35",
	"lollipop-10-30/seed=1":    "fa485e60a951feb0",
	"lollipop-10-30/seed=2":    "fa485e60a951feb0",
	"lollipop-10-30/seed=3":    "fa485e60a951feb0",
	"lollipop-4-10/seed=1":     "06ab02495a594ed4",
	"lollipop-4-10/seed=2":     "06ab02495a594ed4",
	"lollipop-4-10/seed=3":     "06ab02495a594ed4",
	"path:9/seed=1":            "e68ac6ad86a91485",
	"path:9/seed=2":            "e68ac6ad86a91485",
	"path:9/seed=3":            "e68ac6ad86a91485",
	"regular:1000:3/seed=1":    "5d8953b53397b4b8",
	"regular:1000:3/seed=2":    "b51afc73e3b51b80",
	"regular:1000:3/seed=3":    "e22db41fb3fa3914",
	"regular:1048576:8/seed=1": "e73364716960a6bb",
	"regular:10:3/seed=1":      "78b5c94b6fc594ab",
	"regular:10:3/seed=2":      "45eee7c6441c639b",
	"regular:10:3/seed=3":      "5acf1bac36cd078b",
	"regular:12:4/seed=1":      "81d1f73508472d33",
	"regular:12:4/seed=2":      "7c10e0f3d9802a33",
	"regular:12:4/seed=3":      "a818dec024afd543",
	"regular:2:1/seed=1":       "04ee0a650b39f83a",
	"regular:2:1/seed=2":       "04ee0a650b39f83a",
	"regular:2:1/seed=3":       "04ee0a650b39f83a",
	"regular:4096:8/seed=1":    "76b8ff1781a63ec3",
	"regular:4096:8/seed=2":    "c75520b059dc7bc3",
	"regular:4096:8/seed=3":    "d96c898bc762602f",
	"regular:64:19/seed=1":     "726c4e5618fd2014",
	"regular:64:19/seed=2":     "d92d7f2a06085bb8",
	"regular:64:19/seed=3":     "dcbf097527eeb278",
	"rgg:12/seed=1":            "ecbd08bd06bfdad2",
	"rgg:12/seed=2":            "a69c4a46a4cf1dc3",
	"rgg:12/seed=3":            "df83c2d58ae0868b",
	"rgg:200/r=30/keep/seed=1": "6aba4ac9a8a9d158",
	"rgg:200/r=30/keep/seed=2": "6aba4ac9a8a9d158",
	"rgg:200/r=30/keep/seed=3": "6aba4ac9a8a9d158",
	"rgg:300/r=0.9/seed=1":     "f61d4fda35f0c281",
	"rgg:300/r=0.9/seed=2":     "38148900ba2b3f1a",
	"rgg:300/r=0.9/seed=3":     "0a652acc59179010",
	"rgg:400/keep/seed=1":      "f53855d77aa88c4f",
	"rgg:400/keep/seed=2":      "bf2ba1737971395c",
	"rgg:400/keep/seed=3":      "1846d571b0507c2c",
	"rgg:400/seed=1":           "f53855d77aa88c4f",
	"rgg:400/seed=2":           "154d08b1f1e78ed2",
	"rgg:400/seed=3":           "963922a3db3eca2a",
	"rgg:4096/seed=1":          "c00841e838673941",
	"rgg:4096/seed=2":          "274dbc598104bce0",
	"rgg:4096/seed=3":          "00f7aa45a8180b3c",
	"star:7/seed=1":            "8e2ef9e0db6f59c0",
	"star:7/seed=2":            "8e2ef9e0db6f59c0",
	"star:7/seed=3":            "8e2ef9e0db6f59c0",
	"torus2d:1024x1024/seed=1": "8640ba7e6894eca9",
	"torus2d:1x4/seed=1":       "3a45dc8b23571818",
	"torus2d:1x4/seed=2":       "3a45dc8b23571818",
	"torus2d:1x4/seed=3":       "3a45dc8b23571818",
	"torus2d:2x5/seed=1":       "14ef80a0149e2ee9",
	"torus2d:2x5/seed=2":       "14ef80a0149e2ee9",
	"torus2d:2x5/seed=3":       "14ef80a0149e2ee9",
	"torus2d:32x32/seed=1":     "7a9c36cd57844339",
	"torus2d:32x32/seed=2":     "7a9c36cd57844339",
	"torus2d:32x32/seed=3":     "7a9c36cd57844339",
	"torus2d:7x5/seed=1":       "db0080bfe21f05a4",
	"torus2d:7x5/seed=2":       "db0080bfe21f05a4",
	"torus2d:7x5/seed=3":       "db0080bfe21f05a4",
	"torus:1x6/seed=1":         "fe269bca6c234ef4",
	"torus:1x6/seed=2":         "fe269bca6c234ef4",
	"torus:1x6/seed=3":         "fe269bca6c234ef4",
	"torus:2x2x2/seed=1":       "5f240d66f6d64ed7",
	"torus:2x2x2/seed=2":       "5f240d66f6d64ed7",
	"torus:2x2x2/seed=3":       "5f240d66f6d64ed7",
	"torus:4x3x2/seed=1":       "cc7b14787066027e",
	"torus:4x3x2/seed=2":       "cc7b14787066027e",
	"torus:4x3x2/seed=3":       "cc7b14787066027e",
	"torus:5/seed=1":           "bc67e2fbddf889c2",
	"torus:5/seed=2":           "bc67e2fbddf889c2",
	"torus:5/seed=3":           "bc67e2fbddf889c2",
}

// TestGoldenCSRDigests pins the CSR arrays of every generator: a change to
// how a graph is built may change its speed, never a single array entry.
func TestGoldenCSRDigests(t *testing.T) {
	check := func(t *testing.T, key string, g *Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := csrDigest(g); got != goldenCSR[key] {
			t.Errorf("%q: %q, // want %q", key, got, goldenCSR[key])
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, spec := range goldenSpecs {
			key := fmt.Sprintf("%s/seed=%d", spec, seed)
			t.Run(key, func(t *testing.T) {
				g, err := FromSpec(spec, seed)
				check(t, key, g, err)
			})
		}
		for label, build := range goldenBuilds(seed) {
			key := fmt.Sprintf("%s/seed=%d", label, seed)
			t.Run(key, func(t *testing.T) {
				g, err := build()
				check(t, key, g, err)
			})
		}
	}
	for _, spec := range []string{"regular:1048576:8", "torus2d:1024x1024", "hypercube:20"} {
		key := spec + "/seed=1"
		t.Run(key, func(t *testing.T) {
			if testing.Short() {
				t.Skip("2^20-node graphs in -short mode")
			}
			g, err := FromSpec(spec, 1)
			check(t, key, g, err)
		})
	}
}

// TestGoldenRGGExercisesPatchUp guards the golden set itself: at least one
// pinned threshold-radius geometric graph must be disconnected before the
// patch-up, or the digests would not cover connectToGiant.
func TestGoldenRGGExercisesPatchUp(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g, _, err := RandomGeometric(400, seed, GeometricOptions{KeepDisconnected: true})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			return
		}
	}
	t.Fatal("rgg:400 is connected for every golden seed; the patch-up is not pinned")
}
