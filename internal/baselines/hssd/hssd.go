// Package hssd implements a Halpern–Simons–Strong–Dolev style signed-message
// resynchronization algorithm [HSSD] (§10 of the paper).
//
// When a process's clock reaches the next agreed value T_k = T⁰ + kP it
// signs and broadcasts T_k. A process receiving a validly signed chain for
// T_k "not too long before its clock reaches the value" updates its clock
// *to* T_k, appends its signature, and relays. Because a chain of s
// signatures proves s distinct processes vouched for the value, the scheme
// tolerates any number of faults as long as nonfaulty processes stay
// connected — but needs unforgeable signatures.
//
// Signature substitution: chains carry the signer ids; the fault
// strategies in this repository never fabricate chain entries for other
// processes, which is exactly the guarantee real signatures would enforce.
//
// Per §10: agreement ≈ δ+ε; faulty processes can make nonfaulty clocks run
// fast by sending T_k early (the validity slope exceeds 1 by an amount
// growing with f); the adjustment is about (f+1)(δ+ε).
package hssd

import (
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes the HSSD discipline.
type Config struct {
	analysis.Params
	// AcceptSlack bounds how early (in local time) a T_k message may arrive
	// and still be accepted: a chain with s signatures is valid when
	// T_k − local ≤ β + s·(δ+ε) + AcceptSlack. Zero is the strict rule.
	AcceptSlack float64
}

// SignedMsg is a T_k announcement with its signature chain. Chain[0] is the
// originator; relays append their ids. A nonfaulty receiver verifies the
// chain is non-empty with distinct signers.
type SignedMsg struct {
	K     int
	Chain []sim.ProcID
}

// roundTimer fires when the local clock reaches the round's mark.
type roundTimer struct {
	k int
}

// Proc is one HSSD process.
type Proc struct {
	cfg  Config
	corr clock.Local

	next    int // next round to act on
	relayed map[int]bool
}

var (
	_ sim.Process    = (*Proc)(nil)
	_ sim.CorrHolder = (*Proc)(nil)
)

// New builds an HSSD process.
func New(cfg Config, initialCorr clock.Local) *Proc {
	return &Proc{
		cfg:     cfg,
		corr:    initialCorr,
		next:    1,
		relayed: make(map[int]bool),
	}
}

// Corr implements sim.CorrHolder.
func (p *Proc) Corr() clock.Local { return p.corr }

// Round returns the next round the process will act on.
func (p *Proc) Round() int { return p.next }

func (p *Proc) mark(k int) clock.Local { return clock.Local(p.cfg.T0 + float64(float64(k)*p.cfg.P)) }

func (p *Proc) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + p.corr }

// Receive implements sim.Process.
func (p *Proc) Receive(ctx *sim.Context, m sim.Message) {
	switch m.Kind {
	case sim.KindStart:
		ctx.Annotate(metrics.TagRoundBegin, 0)
		ctx.SetTimer(p.mark(p.next)-p.corr, roundTimer{k: p.next})

	case sim.KindTimer:
		rt, ok := m.Payload.(roundTimer)
		if !ok || rt.k != p.next {
			return
		}
		// Own clock reached T_k first: originate the signed chain. The
		// clock is already exactly T_k, so no adjustment is needed.
		p.advance(ctx, rt.k, 0)
		ctx.Broadcast(SignedMsg{K: rt.k, Chain: []sim.ProcID{ctx.ID()}})
		p.relayed[rt.k] = true

	case sim.KindOrdinary:
		sm, ok := m.Payload.(SignedMsg)
		if !ok || sm.K != p.next || p.relayed[sm.K] {
			return
		}
		if !validChain(sm.Chain) {
			return
		}
		// Accept only if the message is not too early: a chain of s
		// signatures can legitimately precede our clock's reaching T_k by
		// at most β + s·(δ+ε).
		early := float64(p.mark(sm.K) - p.local(ctx))
		if early > p.cfg.Beta+float64(float64(len(sm.Chain))*(p.cfg.Delta+p.cfg.Eps))+p.cfg.AcceptSlack {
			return
		}
		// Update the clock to T_k and relay with our signature.
		adj := float64(p.mark(sm.K) - p.local(ctx))
		p.corr += clock.Local(adj)
		p.advance(ctx, sm.K, adj)
		chain := make([]sim.ProcID, 0, len(sm.Chain)+1)
		chain = append(chain, sm.Chain...)
		chain = append(chain, ctx.ID())
		ctx.Broadcast(SignedMsg{K: sm.K, Chain: chain})
		p.relayed[sm.K] = true
	}
}

// advance records round completion and schedules the next mark.
func (p *Proc) advance(ctx *sim.Context, k int, adj float64) {
	ctx.Annotate(metrics.TagAdjust, adj)
	ctx.Annotate(metrics.TagRoundComplete, float64(k-1))
	ctx.Annotate(metrics.TagRoundBegin, float64(k))
	p.next = k + 1
	ctx.SetTimer(p.mark(p.next)-p.corr, roundTimer{k: p.next})
	for r := range p.relayed {
		if r < k {
			delete(p.relayed, r)
		}
	}
}

// validChain checks the signature chain: non-empty and all signers distinct.
func validChain(chain []sim.ProcID) bool {
	if len(chain) == 0 {
		return false
	}
	seen := make(map[sim.ProcID]bool, len(chain))
	for _, id := range chain {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}
