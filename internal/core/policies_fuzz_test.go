package core

import "testing"

// FuzzPolicyFromSpec: no input may panic — malformed specs must error —
// every accepted spec must have a canonical Name that reparses to itself,
// and every accepted policy must run: it is driven through ApplyAdaptive
// for a few rounds of a 4x4 SOS stub.
func FuzzPolicyFromSpec(f *testing.F) {
	for _, s := range []string{
		"at:2500", "local:16", "stall:50:0.01", "adaptive:16:64:100",
		"adaptive:16:64", "never", "", "x", ":::", "at:-5", "local:NaN",
		"adaptive:64:16", "stall:0:0.1", "stall:9223372036854775807:0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := PolicyFromSpec(spec)
		if err != nil || p == nil {
			return
		}
		name := p.Name()
		again, err := PolicyFromSpec(name)
		if err != nil {
			t.Fatalf("Name %q of accepted spec %q does not reparse: %v", name, spec, err)
		}
		if again.Name() != name {
			t.Fatalf("Name not canonical: %q -> %q", name, again.Name())
		}
		proc := newStub(t, SOS)
		proc.loads[0] = 1_000
		for i := 0; i < 4; i++ {
			proc.Step()
			ApplyAdaptive(proc, p)
		}
	})
}
