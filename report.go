package clocksync

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hier"
)

// Report summarizes one maintenance run: measured quantities side by side
// with the paper's closed-form bounds.
type Report struct {
	// Rounds completed by every nonfaulty process.
	Rounds int

	// MaxSkew is the largest |L_p(t) − L_q(t)| over nonfaulty p, q and all
	// sampled t (compare Gamma).
	MaxSkew float64
	// SteadySkew is MaxSkew restricted to the second half of the run.
	SteadySkew float64
	// Gamma is the Theorem 16 agreement bound for the parameters.
	Gamma float64

	// BetaSeries is the measured per-round spread of round beginnings.
	BetaSeries []float64
	// BetaFloor is the paper's steady-state estimate 4ε+4ρP.
	BetaFloor float64

	// MaxAdjustment is the largest |ADJ| any nonfaulty process applied.
	MaxAdjustment float64
	// AdjBound is the Theorem 4(a) bound (1+ρ)(β+ε)+ρδ.
	AdjBound float64

	// ValidityViolation is the worst violation of the Theorem 19 envelope;
	// ≤ 0 means validity held at every sample.
	ValidityViolation float64

	// MessagesSent counts ordinary message copies; MessagesLost counts
	// copies dropped by a lossy channel.
	MessagesSent, MessagesLost int64

	// SkewSeries is the per-bucket max skew if WithSkewSeries was used.
	SkewSeries []float64

	// Rejoined reports whether a WithRejoiner process completed §9.1
	// reintegration (false when none was configured).
	Rejoined bool

	// TwoTier reports the run used the two-tier hierarchical topology
	// (WithTopology / WithClusters). Gamma then holds the composed envelope
	// γ_composed = 2γ_in + γ_out + AdjBound_out, the adjustment, validity
	// and beta sections are not populated, and AgreementHolds judges the
	// steady-state skew — the composition converges through an initial
	// discipline transient before the envelope applies.
	TwoTier bool
	// Clusters and ClusterSize describe the two-tier topology (zero for
	// flat runs).
	Clusters, ClusterSize int
	// InnerAgreementOK is the runtime hier-agreement invariant's verdict
	// for two-tier runs: from warmup on, the global spread stayed within
	// γ_composed and every cluster stayed within its own inner envelope.
	InnerAgreementOK bool

	// Trace is the rendered action log when WithTrace was used.
	Trace string
}

func buildReport(cfg core.Config, res *exp.Result, rj *core.Rejoiner) *Report {
	r := &Report{
		Rounds:            res.Rounds.Rounds(),
		MaxSkew:           res.Skew.Max(),
		SteadySkew:        res.Skew.MaxAfterWarmup(),
		Gamma:             cfg.Gamma(),
		BetaSeries:        res.Rounds.BetaSeries(),
		BetaFloor:         cfg.BetaFloor(),
		MaxAdjustment:     res.Rounds.MaxAbsAdj(0),
		AdjBound:          cfg.AdjBound(),
		ValidityViolation: res.Validity.WorstViolation(),
		MessagesSent:      res.MessagesSent(),
		MessagesLost:      res.MessagesLost(),
		SkewSeries:        res.Skew.Series(),
	}
	if rj != nil {
		r.Rejoined = rj.Joined()
	}
	return r
}

// twoTierReport reads a two-tier run back: the composed envelope in Gamma,
// rounds from the members themselves, the runtime invariant's verdict.
func twoTierReport(s *hier.System, res *exp.Result) *Report {
	hcfg := s.Cfg
	return &Report{
		TwoTier:          true,
		Clusters:         hcfg.Clusters(),
		ClusterSize:      hcfg.ClusterSize,
		Gamma:            hcfg.GammaComposed(),
		Rounds:           s.MinRound(),
		MaxSkew:          res.Skew.Max(),
		SteadySkew:       res.Skew.MaxAfterWarmup(),
		MessagesSent:     res.MessagesSent(),
		MessagesLost:     res.MessagesLost(),
		SkewSeries:       res.Skew.Series(),
		InnerAgreementOK: res.HierAgreement.Ok(),
	}
}

// AgreementHolds reports whether the measured skew respected Theorem 16
// (flat: all samples vs. γ) or the composed envelope (two-tier: steady
// samples vs. γ_composed).
func (r *Report) AgreementHolds() bool {
	if r.TwoTier {
		return r.SteadySkew <= r.Gamma
	}
	return r.MaxSkew <= r.Gamma
}

// AdjustmentBoundHolds reports whether Theorem 4(a) held.
func (r *Report) AdjustmentBoundHolds() bool { return r.MaxAdjustment <= r.AdjBound }

// ValidityHolds reports whether the Theorem 19 envelope held.
func (r *Report) ValidityHolds() bool { return r.ValidityViolation <= 0 }

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	if r.TwoTier {
		fmt.Fprintf(&b, "topology:   two-tier, %d clusters of ≤ %d\n", r.Clusters, r.ClusterSize)
		fmt.Fprintf(&b, "rounds: %d\n", r.Rounds)
		fmt.Fprintf(&b, "agreement:  steady skew %s (max %s) vs γ_composed %s — %s\n",
			exp.FmtDur(r.SteadySkew), exp.FmtDur(r.MaxSkew), exp.FmtDur(r.Gamma), holds(r.AgreementHolds()))
		fmt.Fprintf(&b, "invariant:  hier-agreement (global + per-cluster) — %s\n", holds(r.InnerAgreementOK))
		fmt.Fprintf(&b, "messages:   %d sent, %d lost\n", r.MessagesSent, r.MessagesLost)
		return b.String()
	}
	fmt.Fprintf(&b, "rounds: %d\n", r.Rounds)
	fmt.Fprintf(&b, "agreement:  max skew %s (steady %s) vs γ %s — %s\n",
		exp.FmtDur(r.MaxSkew), exp.FmtDur(r.SteadySkew), exp.FmtDur(r.Gamma), holds(r.AgreementHolds()))
	fmt.Fprintf(&b, "adjustment: max |ADJ| %s vs bound %s — %s\n",
		exp.FmtDur(r.MaxAdjustment), exp.FmtDur(r.AdjBound), holds(r.AdjustmentBoundHolds()))
	fmt.Fprintf(&b, "validity:   worst envelope violation %s — %s\n",
		exp.FmtDur(r.ValidityViolation), holds(r.ValidityHolds()))
	if n := len(r.BetaSeries); n > 0 {
		fmt.Fprintf(&b, "beta:       first %s → last %s (floor %s)\n",
			exp.FmtDur(r.BetaSeries[0]), exp.FmtDur(r.BetaSeries[n-1]), exp.FmtDur(r.BetaFloor))
	}
	fmt.Fprintf(&b, "messages:   %d sent, %d lost\n", r.MessagesSent, r.MessagesLost)
	return b.String()
}

func holds(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}

// StartupReport summarizes a §9.2 establishment run.
type StartupReport struct {
	// BSeries is the measured closeness Bᵢ at the latest begin of each
	// round (Lemma 20's quantity).
	BSeries []float64
	// FinalSkew is the nonfaulty skew at the end of the run.
	FinalSkew float64
	// Floor is the Lemma 20 fixed point 4ε+4ρ(11δ+39ε).
	Floor float64
	// FourEps is 4ε, the paper's headline closeness.
	FourEps float64
	// Recurrence applies the Lemma 20 step B → B/2 + 2ε + 2ρ(11δ+39ε).
	Recurrence func(float64) float64
}

// Converged reports whether the final closeness is within the given factor
// of the Lemma 20 floor.
func (r *StartupReport) Converged(factor float64) bool {
	return r.FinalSkew <= r.Floor*factor
}

// String renders the Bᵢ decay.
func (r *StartupReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "startup rounds: %d, floor 4ε+4ρ(11δ+39ε) = %s\n", len(r.BSeries), exp.FmtDur(r.Floor))
	for i, v := range r.BSeries {
		if i > 12 {
			fmt.Fprintf(&b, "  …\n")
			break
		}
		fmt.Fprintf(&b, "  B%-2d = %s\n", i, exp.FmtDur(v))
	}
	fmt.Fprintf(&b, "final skew: %s (4ε = %s)\n", exp.FmtDur(r.FinalSkew), exp.FmtDur(r.FourEps))
	return b.String()
}
