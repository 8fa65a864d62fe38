package main

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/sim"
)

// The decorators sit at the engine's seams — sim.Process, sim.DelayModel and
// each observer — because that is as far in as code outside the program can
// reach. Each implements exactly the optional interfaces its inner value
// does, so the engine classifies the decorated system as it would the plain
// one (batched delay sampling, CorrHolder clocks, sampler versus annotation
// fan-outs) and replays the same execution.

// tracedProc times Receive.
type tracedProc struct {
	inner sim.Process
	a     *acc
}

func (p *tracedProc) Receive(ctx *sim.Context, m sim.Message) {
	t := now()
	p.inner.Receive(ctx, m)
	p.a.add(t, 0)
}

// tracedCorrProc is a tracedProc whose inner automaton exposes CORR.
type tracedCorrProc struct {
	tracedProc
	corr sim.CorrHolder
}

func (p *tracedCorrProc) Corr() clock.Local { return p.corr.Corr() }

func decorateProc(p sim.Process, a *acc) sim.Process {
	tp := tracedProc{inner: p, a: a}
	if h, ok := p.(sim.CorrHolder); ok {
		return &tracedCorrProc{tracedProc: tp, corr: h}
	}
	return &tp
}

// tracedDelay times delay sampling per sender: a sender belongs to one shard,
// so its slot has one writer even under sim.NewSharded.
type tracedDelay struct {
	inner    sim.DelayModel
	bySender []acc
}

func (d *tracedDelay) Sample(from, to sim.ProcID, at clock.Real, rng *sim.RNG) float64 {
	t := now()
	v := d.inner.Sample(from, to, at, rng)
	d.bySender[from].add(t, 1)
	return v
}

func (d *tracedDelay) Bounds() (float64, float64) { return d.inner.Bounds() }

// tracedBatchDelay keeps SampleAll, so a batched model stays batched.
type tracedBatchDelay struct {
	tracedDelay
	batch sim.BatchDelayModel
}

func (d *tracedBatchDelay) SampleAll(from sim.ProcID, n int, at clock.Real, rng *sim.RNG, out []float64) {
	t := now()
	d.batch.SampleAll(from, n, at, rng, out)
	d.bySender[from].add(t, int64(n))
}

func decorateDelay(m sim.DelayModel, bySender []acc) sim.DelayModel {
	td := tracedDelay{inner: m, bySender: bySender}
	if b, ok := m.(sim.BatchDelayModel); ok {
		return &tracedBatchDelay{tracedDelay: td, batch: b}
	}
	return &td
}

type tracedSampler struct {
	sampler sim.Sampler
	samples *acc
}

func (s *tracedSampler) Sample(e *sim.Engine, pre bool) {
	t := now()
	s.sampler.Sample(e, pre)
	s.samples.add(t, 0)
}

type tracedSink struct {
	sink   sim.AnnotationSink
	annots *acc
}

func (s *tracedSink) OnAnnotation(e *sim.Engine, a sim.Annotation) {
	t := now()
	s.sink.OnAnnotation(e, a)
	s.annots.add(t, 0)
}

type tracedSamplerSink struct {
	tracedSampler
	tracedSink
}

// decorateObserver wraps o in the decorator with o's observer interfaces and
// no others. Per-delivery observers are refused: no benchmarked run has one
// and the sharded engine rejects them.
func decorateObserver(o sim.Observer, samples, annots *acc) (sim.Observer, error) {
	if _, ok := o.(sim.DeliveryObserver); ok {
		return nil, fmt.Errorf("cannot decorate per-delivery observer %T", o)
	}
	s, isSampler := o.(sim.Sampler)
	k, isSink := o.(sim.AnnotationSink)
	switch {
	case isSampler && isSink:
		return &tracedSamplerSink{tracedSampler{s, samples}, tracedSink{k, annots}}, nil
	case isSampler:
		return &tracedSampler{s, samples}, nil
	case isSink:
		return &tracedSink{k, annots}, nil
	}
	return nil, fmt.Errorf("%T is not an observer", o)
}
