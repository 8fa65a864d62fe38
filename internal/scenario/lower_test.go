package scenario

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/sim"
)

// bandRecorder is a pass-through adversary noting, per message copy, the
// band in force and the base delay the substrate drew: two runs that record
// the same sequence drew every delay from the same substrate.
type bandRecorder struct{ seen []float64 }

func (r *bandRecorder) Retime(v *sim.AdversaryView, _, _ sim.ProcID, _ clock.Real, base float64) float64 {
	d, e := v.Bounds()
	r.seen = append(r.seen, d, e, base)
	return base
}

// TestLowerDelayModels pins the delay-model table: for each model name the
// scenario's delay lowers to the matching sim type over the resolved band
// (zeros inherit the parameters' δ and ε, constant has ε = 0), and a
// delay-shift to that name — or with an empty model, on a scenario of that
// model — installs a substrate that draws exactly what the matching type
// draws.
func TestLowerDelayModels(t *testing.T) {
	const d, e = 0.0102, 0.0004
	p := valid().params()
	lowered := func(t *testing.T, s *Scenario) *compiled {
		t.Helper()
		s.Rounds = 2
		c, err := lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	record := func(t *testing.T, s *Scenario) []float64 {
		t.Helper()
		c := lowered(t, s)
		r := &bandRecorder{}
		c.w.Adversary = r
		if _, err := exp.Run(c.w); err != nil {
			t.Fatal(err)
		}
		if len(r.seen) == 0 {
			t.Fatal("no message copies recorded")
		}
		return r.seen
	}
	for _, tc := range []struct {
		model     string
		want, dft sim.DelayModel // over (d, e) and over the parameters' band
	}{
		{"uniform", sim.UniformDelay{Delta: d, Eps: e}, sim.UniformDelay{Delta: p.Delta, Eps: p.Eps}},
		{"constant", sim.ConstantDelay{Delta: d}, sim.ConstantDelay{Delta: p.Delta}},
		{"extremal", sim.ExtremalDelay{Delta: d, Eps: e}, sim.ExtremalDelay{Delta: p.Delta, Eps: p.Eps}},
		{"center", sim.CenterDelay{Delta: d, Eps: e}, sim.CenterDelay{Delta: p.Delta, Eps: p.Eps}},
	} {
		t.Run(tc.model, func(t *testing.T) {
			ref := valid()
			ref.Delay = Delay{Model: tc.model, Delta: d, Eps: e}
			if got := lowered(t, ref).w.Delay; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("delay %+v lowered to %#v, want %#v", ref.Delay, got, tc.want)
			}
			dft := valid()
			dft.Delay = Delay{Model: tc.model}
			if got := lowered(t, dft).w.Delay; !reflect.DeepEqual(got, tc.dft) {
				t.Fatalf("delay %+v lowered to %#v, want %#v", dft.Delay, got, tc.dft)
			}
			want := record(t, ref)

			named := valid()
			named.Events = []Event{{At: 0, Kind: KindDelayShift, Model: tc.model, Delta: d, Eps: e}}
			if got := record(t, named); !slices.Equal(got, want) {
				t.Errorf("delay-shift to %s did not install %#v", tc.model, tc.want)
			}
			kept := valid()
			kept.Delay = Delay{Model: tc.model}
			kept.Events = []Event{{At: 0, Kind: KindDelayShift, Delta: d, Eps: e}}
			if got := record(t, kept); !slices.Equal(got, want) {
				t.Errorf("delay-shift with no model on a %s scenario did not install %#v", tc.model, tc.want)
			}
		})
	}
}
