package exp

import (
	"fmt"
	"sort"
	"sync"
)

// Experiment reproduces one measurable claim of the paper, named by PaperRef
// (cmd/experiments -list prints the full index). Run executes the workloads
// and returns the tables.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func() ([]*Table, error)
}

var (
	regMu    sync.Mutex
	registry = map[string]Experiment{}
)

// register adds an experiment; each experiment file calls it from init.
// Duplicate ids are a programmer error.
func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by id.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
	}
	return e, nil
}
