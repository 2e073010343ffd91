package sweep

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPolicyAxisGoldenDigests pins the CSV and JSON of a sweep over every
// policy family (one-way and re-arming, plus the no-policy cell), with a
// burst workload so the re-arming controller has something to react to.
func TestPolicyAxisGoldenDigests(t *testing.T) {
	spec := Spec{
		Graphs:     []string{"torus2d:8x8"},
		Schemes:    []string{"sos", "fos"},
		Workloads:  []string{"", "burst:20:6400:0"},
		Policies:   []string{"", "never", "at:10", "local:16", "stall:5:0.01", "adaptive:8:64:5"},
		Replicates: 2,
		Rounds:     60,
		Every:      10,
		BaseSeed:   3,
	}
	res, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, c := range []struct {
		name, want string
		write      func(*bytes.Buffer) error
	}{
		{"csv", "ede6acb5c835d305", func(b *bytes.Buffer) error { return res.WriteCSV(b) }},
		{"json", "c0b9abadf9975d32", func(b *bytes.Buffer) error { return res.WriteJSON(b) }},
	} {
		if got := digest(c.write); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
}
