package sim

import (
	"math"
	"slices"

	"repro/internal/clock"
)

// This file is the engine's read side for local times, one clock table, and
// the one rule for when samplers read it, where some nonfaulty L_p may bend
// (see Sampler). A delivery that changes no correction calls no sampler.
//
// The table holds, for every nonfaulty CORR-holding process, the segment its
// clock is on and a mirror of its correction, in one contiguous array, under
// a configuration version that advances when real time moves, a mirror
// changes or the segments reload. A full evaluation (scan) uses
// clock.PiecewiseLinear.At's float expression (see clock.Segment), so it is
// bit-identical to the live LocalTime walk, which stays the oracle.
//
// Real time moves between any two sample points, so one scan per version
// would still cost n rows per correction change. The extremes are therefore
// kept kinetically (a kinetic tournament cut down to its two certificates —
// Basch, Guibas & Hershberger, "Data Structures for Mobile Data", SODA 1997):
// the rows that attained the max and the min at the last scan, and a bound
// line for every other row — b + r·(t − t_b) with r the largest segment rate
// above the max side, the smallest below the min side, which no row on its
// segment can cross. A read evaluates the two extreme rows and returns them
// when each clears its bound by a rounding allowance relative to the
// operands' magnitudes; inside that guard band it scans, which re-derives
// both certificates. A correction change on any other row re-anchors the two
// lines in O(1), rounded outward. So every value served is the bits the live
// walk produces, and a change of a row that is not an extreme costs O(1).
// LocalTimes, which needs every row, scans under its own version.
//
// A windowed engine (shard.go) applies the same rule at each cut: its
// partitions log their processes' correction changes, keyed by the
// delivery's (at, key), with their annotations, and partition 0 replays the
// merged log in (at, key) order — the time-major pop order — stepping its
// rows forward from the previous cut with Now at each historical instant and
// reloading segments without re-reading corrections. So one execution
// reports the same numbers for every shard count.

// clockRow is one process's entry: while the engine's time is inside
// [clockTable.from, clockTable.until) its local time is
// value + rate·(t−start) + corr.
type clockRow struct {
	start clock.Real
	value clock.Local
	rate  float64
	corr  clock.Local // mirror of the process's Corr()
}

// at is LocalTime's float expression — clock.PiecewiseLinear.At's (see
// clock.Segment), then + CORR — on the row's copies of the operands.
func (r *clockRow) at(t clock.Real) clock.Local {
	return r.value + clock.Local(r.rate*float64(t-r.start)) + r.corr
}

// scale bounds the magnitudes at(t) adds up, less the rate·|t| term: what
// the rounding error of one evaluation is proportional to.
func (r *clockRow) scale() float64 {
	return math.Abs(float64(r.value)) + float64(math.Abs(r.rate)*math.Abs(float64(r.start))) + math.Abs(float64(r.corr))
}

type clockTable struct {
	ids   []ProcID      // nonfaulty CORR-holding processes, ascending; nil until built
	rows  []clockRow    // parallel to ids
	lt    []clock.Local // parallel to ids: the local times of version ltVer
	hist  []clock.Local // scratch of the same length for scans at t ≠ now
	rowOf []int32       // ProcID → index into ids, −1 outside the table
	// Every row's segment is the one At reads over [from, until).
	from, until clock.Real
	lo, hi      clock.Local // extremes of the local times at version passVer
	passVer     uint64      // configuration version lo, hi belong to; 0 = none yet
	ltVer       uint64      // configuration version lt belongs to; 0 = none yet
	// rMin, rMax are the extreme segment rates of the rows loaded: the
	// slopes of the kinetic bound lines. mag bounds every row's scale()
	// since they loaded.
	rMin, rMax float64
	mag        float64
	kin        kinetic
	// evals counts evaluations at the current instant, scans those that
	// evaluated every row.
	evals, scans uint64
	// moved is set by the first re-read inside a Receive that finds the
	// acting row's correction changed, and before is the value the row held
	// until then: settle's pre sample restores it.
	moved  bool
	before clock.Local
}

// kinetic holds the two certificates. While ok, for every t ≥ at until the
// rows next leave their segments, in exact arithmetic: every row but hiRow
// has local time ≤ bHi + rMax·(t − at), every row but loRow ≥ bLo +
// rMin·(t − at).
type kinetic struct {
	ok           bool
	hiRow, loRow int
	at           clock.Real
	bHi, bLo     clock.Local
}

// slackUlps is the guard band's width relative to the operands' magnitude.
// One at evaluation rounds four times and a bound line three, each by at
// most 2⁻⁵³ of the magnitude slack sums, so their total stays below 7·2⁻⁵³
// of it; 2⁻⁴⁴ = 512·2⁻⁵³ is still picoseconds on local times of minutes.
const slackUlps = 0x1p-44

// slack bounds, at t ≥ at, the rounding of one row evaluation plus one bound
// line evaluation.
func (tb *clockTable) slack(t clock.Real) clock.Local {
	r := max(tb.rMax, -tb.rMin)
	return clock.Local(slackUlps * (tb.mag + float64(r*(math.Abs(float64(t))+math.Abs(float64(tb.kin.at))))))
}

// bounds evaluates the two bound lines at t.
func (tb *clockTable) bounds(t clock.Real) (bLo, bHi clock.Local) {
	dt := float64(t - tb.kin.at)
	return tb.kin.bLo + clock.Local(float64(tb.rMin*dt)), tb.kin.bHi + clock.Local(float64(tb.rMax*dt))
}

// Engine.acting outside any action, and while a timeline action runs: the
// action may change any process, so a read made inside it re-reads every row.
const (
	actingNone ProcID = -1
	actingAll  ProcID = -2
)

func same(a, b clock.Local) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// table returns the clock table, current for a read at this instant: built
// on first use (an engine nobody reads never pays for it), with the acting
// process's correction — or, inside a timeline action, every row — re-read.
// A partition's rows move only in the replay at the cut, so a read made
// inside one of its Receives re-reads nothing.
func (e *Engine) table() *clockTable {
	switch {
	case e.tbl.ids == nil:
		e.buildTable()
	case e.acting >= 0 && e.part == nil:
		e.rereadCorr(e.acting)
	case e.acting == actingAll:
		e.loadTable()
	}
	return &e.tbl
}

func (e *Engine) buildTable() {
	tb := &e.tbl
	tb.ids = e.nonfaulty // shared while every nonfaulty process holds a correction
	if slices.ContainsFunc(e.nonfaulty, func(p ProcID) bool { return e.corr[p] == nil }) {
		tb.ids = slices.DeleteFunc(slices.Clone(e.nonfaulty), func(p ProcID) bool { return e.corr[p] == nil })
	}
	// One allocation holds the local times, the scratch and, on a windowed
	// engine, the partitions' correction mirror (see enter).
	n, m := len(tb.ids), 0
	if e.parts != nil {
		m = len(e.procs)
	}
	buf := make([]clock.Local, 2*n+m)
	tb.lt, tb.hist = buf[:n:n], buf[n:2*n:2*n]
	if m > 0 {
		e.mirror = buf[2*n:]
	}
	e.edges = e.edgeBuf[:0]
	tb.rows = make([]clockRow, n)
	tb.rowOf = make([]int32, len(e.procs))
	for i := range tb.rowOf {
		tb.rowOf[i] = -1
	}
	for i, p := range tb.ids {
		tb.rowOf[p] = int32(i)
	}
	e.loadTable()
}

// loadTable re-reads every row — its correction and the segment its clock is
// on. It runs when the table is built and after a timeline action.
func (e *Engine) loadTable() {
	e.rereadAll()
	e.loadSegments()
}

// rereadAll re-reads every row's correction and reports whether any moved.
func (e *Engine) rereadAll() bool {
	tb, moved := &e.tbl, false
	for i, p := range tb.ids {
		if c := e.corr[p].Corr(); !same(c, tb.rows[i].corr) {
			tb.rows[i].corr, moved = c, true
			tb.mag = max(tb.mag, tb.rows[i].scale())
		}
	}
	if moved {
		e.ver++
		tb.kin.ok = false
	}
	return moved
}

// loadSegments loads the segment every row's clock is on now and starts a new
// configuration version. It re-reads no correction: a windowed engine's
// replay reloads segments while its rows hold corrections of the past.
func (e *Engine) loadSegments() {
	tb := &e.tbl
	e.ver++
	tb.kin.ok = false
	tb.from, tb.until = clock.Real(math.Inf(-1)), clock.Real(math.Inf(1))
	tb.rMin, tb.rMax, tb.mag = math.Inf(1), math.Inf(-1), 0
	for i, p := range tb.ids {
		s, r := e.clocks[p].SegmentAt(e.now), &tb.rows[i]
		r.start, r.value, r.rate = s.Start, s.Value, s.Rate
		tb.from, tb.until = max(tb.from, s.From), min(tb.until, s.Until)
		tb.rMin, tb.rMax = min(tb.rMin, s.Rate), max(tb.rMax, s.Rate)
		tb.mag = max(tb.mag, r.scale())
	}
	if len(e.samplers) > 0 {
		e.SampleAt(tb.until) // the next clock breakpoint
	}
}

// rereadCorr brings p's row to p's correction. The first re-read that finds
// it moved inside a Receive keeps the value from before, for settle.
func (e *Engine) rereadCorr(p ProcID) {
	tb := &e.tbl
	i := tb.rowOf[p]
	if i < 0 {
		return
	}
	c := e.corr[p].Corr()
	if same(c, tb.rows[i].corr) {
		return
	}
	if !tb.moved {
		tb.moved, tb.before = true, tb.rows[i].corr
	}
	e.setRow(i, c)
}

// setRow sets row i's correction to c, starting a new configuration version
// if that moves it. A move of an extreme row drops the certificates; any
// other row's re-anchors the bound lines at now, on or beyond both the old
// lines and the row's new value. (A row read past the segments' end can only
// mis-anchor lines that the next read discards: evaluate reloads, and so
// drops them, first.)
func (e *Engine) setRow(i int32, c clock.Local) {
	tb := &e.tbl
	r := &tb.rows[i]
	if same(c, r.corr) {
		return
	}
	r.corr = c
	e.ver++
	tb.mag = max(tb.mag, r.scale())
	switch k := &tb.kin; {
	case !k.ok:
	case int(i) == k.hiRow || int(i) == k.loRow || e.now < k.at:
		k.ok = false
	default:
		v, s := r.at(e.now), tb.slack(e.now)
		bLo, bHi := tb.bounds(e.now)
		k.bLo, k.bHi, k.at = min(bLo, v)-s, max(bHi, v)+s, e.now
	}
}

// settle ends a delivery by reading the recipient's correction. The
// time-major engine re-reads its row and, if the delivery moved it, samples
// there; a partition whose window a Run observes compares it with the value
// the partition's deliveries left it at and logs a move for the replay.
func (e *Engine) settle(p ProcID) {
	tb := &e.tbl
	switch {
	case e.mirror != nil:
		if h := e.corr[p]; h != nil && !e.faulty[p] {
			if c := h.Corr(); !same(c, e.mirror[p]) {
				e.mirror[p] = c
				e.logChange(p, c)
			}
		}
	case tb.rowOf != nil && e.part == nil:
		e.rereadCorr(p)
		if tb.moved {
			tb.moved = false
			e.change(tb.rowOf[p], tb.before)
		}
	}
}

// change samples immediately before and after row i's correction moved from
// old to the value it holds, the row holding old for the first sample. A
// correction back at old changed nothing.
func (e *Engine) change(i int32, old clock.Local) {
	c := e.tbl.rows[i].corr
	if same(c, old) || len(e.samplers) == 0 {
		return
	}
	e.setRow(i, old)
	e.sample(true)
	e.setRow(i, c)
	e.sample(false)
}

// sample calls every sampler at the current configuration; pre marks the
// sample immediately before a change.
func (e *Engine) sample(pre bool) {
	for _, s := range e.samplers {
		s.Sample(e, pre)
	}
	e.sampledVer = e.ver
}

// horizon samples at the end of a run, unless the configuration there has
// been sampled already.
func (e *Engine) horizon() {
	if e.ver != e.sampledVer {
		e.sample(false)
	}
}

// advance moves real time forward to t, first sampling, in time order, at
// each edge up to and including t — a clock breakpoint, where the segments
// reload, or an instant a sampler asked for.
func (e *Engine) advance(t clock.Real) {
	for len(e.edges) > 0 && e.edges[0] <= t {
		b := e.edges[0]
		e.edges = e.edges[:copy(e.edges, e.edges[1:])]
		if b > e.now {
			e.now = b
			e.ver++
		}
		if b >= e.tbl.until {
			e.loadSegments()
		}
		e.sample(false)
	}
	if t > e.now {
		e.now = t
		e.ver++
	}
}

// SampleAt asks the engine to sample at real time t too. A sampler whose
// maximum counts only from t on (a warm-up, the validity anchor) or starts
// afresh there (a series bucket) calls it from a sample before t, so the
// window's maximum includes its first instant. An instant not after Now, or
// asked for already, is ignored.
func (e *Engine) SampleAt(t clock.Real) {
	if !(t > e.now) || math.IsInf(float64(t), 1) {
		return
	}
	if i, found := slices.BinarySearch(e.edges, t); !found {
		e.edges = slices.Insert(e.edges, i, t)
	}
}

// enter opens a Run. Between runs the caller may have changed any
// correction, so every row is re-read (the table is built here when an
// observer will read it) and a windowed engine's partitions log from there;
// the samplers take the first Run's start, or a changed one.
func (e *Engine) enter() {
	tb, moved := &e.tbl, false
	switch {
	case tb.ids != nil:
		moved = e.rereadAll()
	case len(e.samplers)+len(e.annots) > 0:
		e.buildTable()
		moved = true
	default:
		return
	}
	if e.parts != nil {
		for i, p := range tb.ids {
			e.mirror[p] = tb.rows[i].corr
		}
		for _, p := range e.parts {
			p.mirror = e.mirror
		}
	}
	if moved || e.sampledVer == 0 {
		e.sample(false)
	}
}

// scan is the one routine that evaluates every local time: each row's clock
// at real time t plus its mirrored correction, into lt, with their min and
// max. Rows are read when they hold the segments in force at t, the clocks
// through At otherwise; both are LocalTime's order and float expression.
func (e *Engine) scan(t clock.Real, lt []clock.Local) (lo, hi clock.Local) {
	tb := &e.tbl
	lo, hi = clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	if t < tb.from || t >= tb.until {
		for i, p := range tb.ids {
			v := e.clocks[p].At(t) + tb.rows[i].corr
			lt[i] = v
			lo, hi = widen(lo, hi, v)
		}
		return lo, hi
	}
	// Four rows a turn: the rows are independent, and stated this way the
	// compiler keeps the four evaluations in registers — 1.4 ns a row against
	// 2.7 for the one-row loop on the 2.1 GHz host BENCH_engine.json records.
	rows := tb.rows
	lt = lt[:len(rows)]
	for len(rows) >= 4 {
		v0, v1, v2, v3 := rows[0].at(t), rows[1].at(t), rows[2].at(t), rows[3].at(t)
		lt[0], lt[1], lt[2], lt[3] = v0, v1, v2, v3
		lo, hi = widen(lo, hi, v0)
		lo, hi = widen(lo, hi, v1)
		lo, hi = widen(lo, hi, v2)
		lo, hi = widen(lo, hi, v3)
		rows, lt = rows[4:], lt[4:]
	}
	for i := range rows {
		v := rows[i].at(t)
		lt[i] = v
		lo, hi = widen(lo, hi, v)
	}
	return lo, hi
}

func widen(lo, hi, v clock.Local) (clock.Local, clock.Local) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}

// evaluate brings lo and hi — and, when all is set, lt — to the current
// configuration: from the two certificated rows when they clear their bound
// lines, by a full scan otherwise. A clock that crossed a breakpoint reloads
// the segments first.
func (e *Engine) evaluate(all bool) {
	tb := &e.tbl
	tb.evals++
	if e.now < tb.from || e.now >= tb.until {
		e.loadSegments()
	}
	if k := &tb.kin; k.ok && !all {
		hv, lv := tb.rows[k.hiRow].at(e.now), tb.rows[k.loRow].at(e.now)
		bLo, bHi := tb.bounds(e.now)
		s := tb.slack(e.now)
		// Strict, so a tie — or a NaN — always takes the full scan below.
		if e.now >= k.at && hv > bHi+s && lv < bLo-s {
			tb.lo, tb.hi, tb.passVer = lv, hv, e.ver
			return
		}
		k.ok = false // inside the guard band
	}
	tb.scans++
	tb.lo, tb.hi = e.scan(e.now, tb.lt)
	tb.passVer, tb.ltVer = e.ver, e.ver
	if !tb.kin.ok {
		e.certify()
	}
}

// certify derives the certificates from the full scan just made at now: the
// rows scan took the extremes from (the first to attain each, as widen
// keeps), and bound lines through the other rows' extremes, widened by one
// allowance so they hold for the exact values. An empty table or one with no
// finite extremes keeps none.
func (e *Engine) certify() {
	tb := &e.tbl
	k := &tb.kin
	k.hiRow, k.loRow = -1, -1
	bLo, bHi := clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	for i, v := range tb.lt {
		if v == tb.hi && k.hiRow < 0 {
			k.hiRow = i
		} else if v > bHi {
			bHi = v
		}
		if v == tb.lo && k.loRow < 0 {
			k.loRow = i
		} else if v < bLo {
			bLo = v
		}
	}
	if k.hiRow < 0 || k.loRow < 0 {
		return
	}
	k.at = e.now
	s := tb.slack(e.now)
	k.bLo, k.bHi, k.ok = bLo-s, bHi+s, true
}

// ConfigVersion identifies the configuration samplers see: it changes
// whenever real time moves, a correction changes or a timeline action fires,
// and only then. An observer that derives per-process state from LocalTimes
// can skip re-deriving it while the version it last saw is still current. It
// is never 0, so an observer's zero value means "none seen yet".
func (e *Engine) ConfigVersion() uint64 {
	e.table()
	return e.ver
}

// LocalTimes returns the nonfaulty CORR-holding processes, ascending, and
// their local times at the current instant, from the one evaluation per
// configuration. Both slices are engine-owned: read-only, and valid until
// the configuration next changes.
func (e *Engine) LocalTimes() ([]ProcID, []clock.Local) {
	tb := e.table()
	if tb.ltVer != e.ver {
		e.evaluate(true)
	}
	return tb.ids, tb.lt
}

// LocalTimeSpread returns the minimum and maximum nonfaulty local times at
// real time t, together with how many processes exposed a local time. At the
// current instant every reader shares the one evaluation per configuration,
// from the certificates when they hold; any other t is scanned afresh, with
// the corrections the rows hold now.
func (e *Engine) LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int) {
	tb := e.table()
	if t == e.now {
		if tb.passVer != e.ver {
			e.evaluate(false)
		}
		return tb.lo, tb.hi, len(tb.ids)
	}
	lo, hi = e.scan(t, tb.hist)
	return lo, hi, len(tb.ids)
}
