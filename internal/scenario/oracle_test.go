package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim/simtest"
)

// TestOracleScenarios runs the whole corpus with the clock-table oracle
// attached as sampler, annotation sink, delivery observer and adversary
// wrapper: every read the engine serves while timeline actions crash and
// rejoin processes (core.CrashRejoin freezes a stale CORR inside an
// action), cut links, shift the delay band and swap the adversary must
// equal the live walk bit for bit.
func TestOracleScenarios(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			s, err := Load(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := lower(s)
			if err != nil {
				t.Fatal(err)
			}
			o := simtest.NewOracle(t)
			c.w.Observers = append(c.w.Observers, o)
			if c.w.Adversary != nil {
				c.w.Adversary = o.Wrap(c.w.Adversary)
			}
			if _, err := exp.Run(c.w); err != nil {
				t.Fatal(err)
			}
			if o.Checks < 1000 {
				t.Fatalf("only %d oracle checks", o.Checks)
			}
		})
	}
}
