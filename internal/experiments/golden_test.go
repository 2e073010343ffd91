package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPolicyExperimentGoldenDigests pins, byte for byte, the text report of
// every experiment that drives a hybrid switch policy, so a change to how a
// policy is evaluated, gated or reported fails here rather than only
// shifting a figure's numbers.
func TestPolicyExperimentGoldenDigests(t *testing.T) {
	want := map[string]string{
		"fig4":     "7b865f4eba8bab14",
		"fig5":     "4660d193d2ecf477",
		"fig8":     "08e427042d24e5b8",
		"fig12":    "2df969c2935c3b3e",
		"fig13":    "f628b79ca94de47f",
		"fig14":    "a2dbcf5d6ba0d739",
		"fig15":    "f29b2357f8b32668",
		"churn":    "6fe86e45ed7e4a92",
		"throttle": "a7c35ba3a28df454",
		"failover": "d6c5f3c699c20449",
	}
	p := Params{Seed: 1, RoundsOverride: 60, TableRows: 4, Tiny: true}
	for _, id := range []string{"fig4", "fig5", "fig8", "fig12", "fig13", "fig14", "fig15", "churn", "throttle", "failover"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, p); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want[id] {
				t.Errorf("digest %s, want %s; output:\n%s", got, want[id], buf.String())
			}
		})
	}
}
