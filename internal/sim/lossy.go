package sim

import "repro/internal/clock"

// LossyLinks is a channel that permanently drops all traffic on a configured
// set of directed links — the link-failure model of [HSSD] (§10 of the
// paper: their algorithm "can tolerate any number of process and link
// failures as long as the nonfaulty processes can still communicate").
// Loopback never fails.
type LossyLinks struct {
	// Dead holds the failed directed links.
	Dead map[Link]bool
}

// Link is a directed process pair.
type Link struct {
	From, To ProcID
}

var _ Channel = LossyLinks{}

// NewLossyLinks builds a channel with the given failed directed links. Pass
// pairs as (from, to); use BreakBothWays for symmetric failures.
func NewLossyLinks(links ...Link) LossyLinks {
	dead := make(map[Link]bool, len(links))
	for _, l := range links {
		dead[l] = true
	}
	return LossyLinks{Dead: dead}
}

// BreakBothWays returns a channel with both directions of the (a, b) link
// failed in addition to the receiver's dead links. The receiver is left
// untouched: the dead-link set is cloned, not mutated, so a LossyLinks value
// can be used as a template for several fault patterns — writing through the
// shared Dead map would break the links in every value derived from it.
func (c LossyLinks) BreakBothWays(a, b ProcID) LossyLinks {
	dead := make(map[Link]bool, len(c.Dead)+2)
	for l := range c.Dead {
		dead[l] = true
	}
	dead[Link{From: a, To: b}] = true
	dead[Link{From: b, To: a}] = true
	return LossyLinks{Dead: dead}
}

// Route implements Channel; the engine's send path calls it once per copy.
func (c LossyLinks) Route(from, to ProcID, sentAt clock.Real, baseDelay float64) (clock.Real, bool) {
	if from != to && c.Dead[Link{From: from, To: to}] {
		return 0, false
	}
	return sentAt + clock.Real(baseDelay), true
}
