package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"diffusionlb/internal/sim"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread bounds are stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	q := make([]float64, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (nearest rank) of xs and whether
// at least ten samples lie beyond it, the rule for reporting a tail.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	return d[k], len(d)-1-k >= 10
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// digest fingerprints a run's observable output: the final load vector and
// every recorded Series row.
func digest(loads []int64, s *sim.Series) string {
	h := sha256.New()
	var buf [8]byte
	put := func(h hash.Hash, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, x := range loads {
		put(h, uint64(x))
	}
	for i := 0; i < s.Len(); i++ {
		put(h, uint64(s.Round(i)))
		for _, v := range s.Row(i) {
			put(h, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
