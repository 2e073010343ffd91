package randx

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must give equal streams")
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct seeds produced %d identical outputs in lockstep", same)
	}
}

func TestMixSensitivity(t *testing.T) {
	base := Mix(1, 2, 3)
	variants := []uint64{
		Mix(1, 2, 4),
		Mix(1, 3, 3),
		Mix(2, 2, 3),
		Mix(1, 2),
		Mix(1, 2, 3, 0),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base", i)
		}
	}
	if Mix(1, 2, 3) != base {
		t.Error("Mix must be deterministic")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Streams for adjacent (round, node) coordinates must differ.
	s1 := NewStream(7, 0, 0)
	s2 := NewStream(7, 0, 1)
	s3 := NewStream(7, 1, 0)
	a, b, c := s1.Uint64(), s2.Uint64(), s3.Uint64()
	if a == b || a == c || b == c {
		t.Errorf("adjacent streams collide: %x %x %x", a, b, c)
	}
}

func TestStreamUniformity(t *testing.T) {
	// Coarse uniformity check over many per-node streams: the first
	// Float64 of each stream should have mean ~0.5 and variance ~1/12.
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := NewStream(99, 3, uint64(i)).Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of stream heads = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("variance of stream heads = %g, want ~%g", variance, 1.0/12.0)
	}
}

func TestPCGPair(t *testing.T) {
	a1, a2 := PCGPair(5, 1, 2)
	b1, b2 := PCGPair(5, 1, 2)
	if a1 != b1 || a2 != b2 {
		t.Error("PCGPair must be deterministic")
	}
	c1, c2 := PCGPair(5, 1, 3)
	if a1 == c1 && a2 == c2 {
		t.Error("PCGPair must differ across coordinates")
	}
	if a1 == a2 {
		t.Error("the two halves of the pair should differ")
	}
}

func TestPerm(t *testing.T) {
	rng := New(123)
	p := make([]int32, 50)
	Perm(rng, p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || int(v) >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
	// Same seed, same permutation.
	p2 := make([]int32, 50)
	Perm(New(123), p2)
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("Perm must be deterministic for equal seeds")
		}
	}
}

// TestFixedArityFastPathsMatchVariadic: Mix2/Mix3 and PCGPair2/PCGPair3
// exist only to avoid the variadic slice allocation in per-node hot loops;
// they must be bit-identical to their variadic originals, or counter
// streams (and every seeded simulation) would silently change.
func TestFixedArityFastPathsMatchVariadic(t *testing.T) {
	cases := [][3]uint64{
		{0, 0, 0},
		{1, 2, 3},
		{0xdead_beef, 1 << 63, 42},
		{7, 0xffff_ffff_ffff_ffff, 9},
	}
	for _, c := range cases {
		if got, want := Mix2(c[0], c[1]), Mix(c[0], c[1]); got != want {
			t.Errorf("Mix2(%v) = %d, Mix = %d", c[:2], got, want)
		}
		if got, want := Mix3(c[0], c[1], c[2]), Mix(c[0], c[1], c[2]); got != want {
			t.Errorf("Mix3(%v) = %d, Mix = %d", c, got, want)
		}
		a2, b2 := PCGPair2(c[0], c[1])
		av, bv := PCGPair(c[0], c[1])
		if a2 != av || b2 != bv {
			t.Errorf("PCGPair2(%v) = (%d,%d), PCGPair = (%d,%d)", c[:2], a2, b2, av, bv)
		}
		a3, b3 := PCGPair3(c[0], c[1], c[2])
		av, bv = PCGPair(c[0], c[1], c[2])
		if a3 != av || b3 != bv {
			t.Errorf("PCGPair3(%v) = (%d,%d), PCGPair = (%d,%d)", c, a3, b3, av, bv)
		}
	}
}

// FuzzPCGPair3Split pins the per-round prefix split the rounding and
// workload hot paths seed from: hashing (a, b) once and finishing each c
// with the suffix must give exactly PCGPair3(a, b, c) and the variadic
// PCGPair(a, b, c), and Float64 over the seeded PCG must draw exactly what
// rand.New(pcg).Float64() draws.
func FuzzPCGPair3Split(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(42), uint64(17), uint64(1<<20-1))
	f.Add(uint64(0xdead_beef), uint64(1<<63), uint64(0xffff_ffff_ffff_ffff))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		prefix := Mix2(a, b)
		if got, want := Mix3Suffix(prefix, c), Mix(a, b, c); got != want {
			t.Fatalf("Mix3Suffix(Mix2(%d,%d), %d) = %d, Mix = %d", a, b, c, got, want)
		}
		s1, s2 := PCGPair3Suffix(prefix, c)
		w1, w2 := PCGPair3(a, b, c)
		v1, v2 := PCGPair(a, b, c)
		if s1 != w1 || s2 != w2 || s1 != v1 || s2 != v2 {
			t.Fatalf("split (%d,%d), PCGPair3 (%d,%d), PCGPair (%d,%d)", s1, s2, w1, w2, v1, v2)
		}
		fast, ref := rand.NewPCG(s1, s2), rand.New(rand.NewPCG(s1, s2))
		for k := 0; k < 4; k++ {
			if got, want := Float64(fast), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d: Float64 = %g, rand.Float64 = %g", k, got, want)
			}
		}
	})
}
