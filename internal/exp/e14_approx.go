package exp

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/multiset"
)

func init() {
	register(Experiment{
		ID:       "E14",
		Title:    "Approximate agreement substrate: halving and validity",
		PaperRef: "[DLPSW]; Appendix Lemmas 21–24",
		Run:      runE14,
	})
}

// runE14 validates the substrate the averaging function comes from: in the
// synchronous model with the spread adversary, the nonfaulty diameter at
// least halves every round and never escapes the initial nonfaulty range.
// Each round's input is the previous round's output, so this experiment is
// inherently sequential and stays off the worker pool.
func runE14() ([]*Table, error) {
	t := &Table{
		ID:       "E14",
		Title:    "Diameter per round under the spread adversary (n=7, f=2, midpoint)",
		PaperRef: "[DLPSW]",
		Columns:  []string{"round", "diameter", "vs previous/2", "within initial range"},
	}
	adv := &agreement.SpreadAdversary{}
	cfg := agreement.Config{N: 7, F: 2, Averager: agreement.Midpoint, Adversary: adv}
	init := []float64{0, 1.5, 4, 7.5, 10, -500, 500}
	faulty := []bool{false, false, false, false, false, true, true}
	st, err := agreement.New(cfg, init, faulty)
	if err != nil {
		return nil, err
	}
	good := multiset.New(st.Values()...)
	lo, hi := good.Min(), good.Max()
	prev := st.Diameter()
	t.AddRow("0", fmt.Sprintf("%.6f", prev), "-", "ok")
	for i := 1; i <= 12; i++ {
		vals := multiset.New(st.Values()...)
		adv.Observe(vals.Min(), vals.Max())
		if err := st.Step(); err != nil {
			return nil, err
		}
		d := st.Diameter()
		within := true
		for _, v := range st.Values() {
			if v < lo-1e-12 || v > hi+1e-12 {
				within = false
			}
		}
		t.AddRow(fmtInt(i), fmt.Sprintf("%.6f", d), Verdict(d <= float64(prev/2)+1e-12), Verdict(within))
		prev = d
	}
	t.AddNote("the same mid∘reduce_f machinery drives the clock algorithm; the clock rounds inherit the halving (E01)")
	return []*Table{t}, nil
}
