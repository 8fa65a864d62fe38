package sim

import (
	"math"
	"slices"

	"repro/internal/clock"
)

// This file is the engine's read side for local times: one clock table whose
// extremes are kept kinetically — two certificates per configuration, a full
// evaluation only inside their guard band.
//
// The paper's Theorem 16/19 quantities are extremes of piecewise-linear
// functions, so the engine samples immediately before and after every
// action, and every sampler wants the nonfaulty local times L_p(now) =
// Ph_p(now) + CORR_p. Walking the Clock and CorrHolder interfaces for that —
// two dynamic calls per process, per reader, per sample — was most of a
// sequential run. Instead the engine keeps, for every nonfaulty CORR-holding
// process, the linear segment its physical clock is on and a mirror of its
// correction, in one contiguous array, and a configuration version that
// advances only when something a reader can see changed:
//
//   - real time moved (Run, the horizon, a timeline action's instant);
//   - the recipient's Corr() differs bit for bit from its mirror after its
//     Receive — one re-read of one process, also made before any read that
//     happens during a Receive (an annotation sink, an adversary's
//     AdversaryView.LocalTimeSpread), so such a read never sees a stale row;
//   - a timeline action fired: every row is re-read, and every read made
//     inside the action re-reads them too;
//   - Run was entered: between runs the caller may have changed anything, so
//     every row is re-read;
//   - a windowed engine cut a window: partition 0, which observers read,
//     re-reads every row there (see below).
//
// A full evaluation (scan) is a loop over the rows using the expression
// clock.PiecewiseLinear.At uses (see clock.Segment), so its result is
// bit-identical to the live LocalTime walk. Real time moves at almost every
// delivery, so one full evaluation per version would still cost n rows per
// event. The sequential engine therefore keeps kinetic extremes (a kinetic
// tournament cut down to its two certificates — Basch, Guibas & Hershberger,
// "Data Structures for Mobile Data", SODA 1997): the rows that attained the
// max and the min at the last full evaluation, and a bound line for every
// other row — b + r·(t − t_b) with r the largest segment rate above the max
// side, the smallest below the min side, which no row on its segment can
// cross. A read at now evaluates only the two extreme rows and returns them
// when each clears its bound by a rounding allowance relative to the
// operands' magnitudes; inside that guard band it falls back to one full
// evaluation, which re-derives both certificates. A correction change on any
// other row re-anchors the two lines at now in O(1), rounded outward. So
// every value served is still the bits the live walk produces, at O(1) per
// event: a §4.2 process adjusts once per round, and only an extreme row's
// adjustment (or a clock breakpoint, a timeline action, Run entry) drops the
// certificates. LocalTimes, which needs every row, fills its slice lazily
// with a full evaluation under its own version.
//
// What the table cannot hold falls back to the live At/Corr walk inside the
// same scan routine, and keeps no certificates:
//
//   - a clock that is not a *clock.PiecewiseLinear (clock.Offset, a foreign
//     Clock) makes the whole scan live; a multi-segment clock crossing a
//     breakpoint reloads the rows first and stays on the table;
//   - a historical query (t ≠ now) is never cached, and walks live when t
//     lies outside the segments the rows hold.
//
// A windowed engine's partitions keep rows but no correction mirror: a peer's
// correction moves inside another partition's window, outside this engine's
// Receive. Partition 0 therefore reloads every row at each window cut — the
// windowed counterpart of Run entry — and its observers, which fire only
// there, read the rows like the time-major engine's, historical annotation
// reads included; a read made inside a Receive on a partition reloads them
// first.
//
// The table relies on the CorrHolder contract — during Run a process changes
// only its own correction, and only inside its own Receive or a timeline
// action.
// LocalTime(p, t) stays the live scalar path and is the oracle the
// differential test (oracle_test.go) holds every read against.

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
	ids   []ProcID      // nonfaulty CORR-holding processes, ascending; nil until first read
	rows  []clockRow    // parallel to ids
	lt    []clock.Local // parallel to ids: the local times of version ltVer
	hist  []clock.Local // scratch of the same length for scans at t ≠ now
	rowOf []int32       // ProcID → index into ids, −1 outside the table; nil on partitions
	// live routes the scan through At/Corr: some row's clock is not a
	// *clock.PiecewiseLinear.
	live bool
	// Every row's segment is the one At reads over [from, until).
	from, until clock.Real
	lo, hi      clock.Local // extremes of the local times at version passVer
	passVer     uint64      // configuration version lo, hi belong to; 0 = none yet
	ltVer       uint64      // configuration version lt belongs to; 0 = none yet
	// rMin, rMax are the extreme segment rates of the rows loaded: the
	// slopes of the kinetic bound lines.
	rMin, rMax float64
	kin        kinetic
	// evals counts evaluations at the current instant, scans those that
	// evaluated every row.
	evals, scans uint64
}

// kinetic holds the two certificates. While ok, for every t ≥ at until the
// rows next leave their segments, in exact arithmetic: every row but hiRow
// has local time ≤ bHi + rMax·(t − at), every row but loRow ≥ bLo +
// rMin·(t − at), and every row's scale() ≤ mag.
type kinetic struct {
	ok           bool
	hiRow, loRow int
	at           clock.Real
	bHi, bLo     clock.Local
	mag          float64
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
	return clock.Local(slackUlps * (tb.kin.mag + float64(r*(math.Abs(float64(t))+math.Abs(float64(tb.kin.at))))))
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

// table returns the clock table, current for a read at this instant: built
// on first use (an engine nobody reads never pays for it), with the acting
// process's correction — or, inside a timeline action, every row — re-read.
// Outside an action with the table built, the common case, it inlines to two
// comparisons.
func (e *Engine) table() *clockTable {
	if e.acting != actingNone || e.tbl.ids == nil {
		e.refresh()
	}
	return &e.tbl
}

func (e *Engine) refresh() {
	switch {
	case e.tbl.ids == nil:
		e.buildTable()
	case e.acting >= 0 && e.tbl.rowOf != nil:
		e.rereadCorr(e.acting)
	default: // inside a timeline action, or a Receive on a partition
		e.loadTable()
	}
}

func (e *Engine) buildTable() {
	tb := &e.tbl
	tb.ids = e.nonfaulty // shared while every nonfaulty process holds a correction
	if slices.ContainsFunc(e.nonfaulty, func(p ProcID) bool { return e.corr[p] == nil }) {
		tb.ids = slices.DeleteFunc(slices.Clone(e.nonfaulty), func(p ProcID) bool { return e.corr[p] == nil })
	}
	n := len(tb.ids)
	buf := make([]clock.Local, 2*n)
	tb.lt, tb.hist = buf[:n:n], buf[n:]
	tb.rows = make([]clockRow, n)
	if e.local == nil {
		tb.rowOf = make([]int32, len(e.procs))
		for i := range tb.rowOf {
			tb.rowOf[i] = -1
		}
		for i, p := range tb.ids {
			tb.rowOf[p] = int32(i)
		}
	}
	e.loadTable()
}

// loadTable re-reads every row in place — the segment its clock is on at the
// current instant and its correction — records the extreme segment rates,
// drops the certificates and starts a new configuration version. It runs
// when the table is built, when Run is entered, at a window cut, after a
// timeline action, and when real time leaves [from, until); before the table
// is built it only starts the version.
func (e *Engine) loadTable() {
	tb := &e.tbl
	e.ver++
	tb.live = false
	tb.kin.ok = false
	tb.from, tb.until = clock.Real(math.Inf(-1)), clock.Real(math.Inf(1))
	tb.rMin, tb.rMax = math.Inf(1), math.Inf(-1)
	for i := range tb.rows {
		p := tb.ids[i]
		r := &tb.rows[i]
		r.corr = e.corr[p].Corr()
		pl, ok := e.clocks[p].(*clock.PiecewiseLinear)
		if !ok {
			tb.live = true
			continue
		}
		s := pl.SegmentAt(e.now)
		r.start, r.value, r.rate = s.Start, s.Value, s.Rate
		tb.from, tb.until = max(tb.from, s.From), min(tb.until, s.Until)
		tb.rMin, tb.rMax = min(tb.rMin, s.Rate), max(tb.rMax, s.Rate)
	}
	if tb.live {
		tb.from, tb.until = clock.Real(math.Inf(-1)), clock.Real(math.Inf(1))
	}
}

// rereadCorr compares p's correction with its mirror and, if it moved,
// updates the row and starts a new configuration version. A move of an
// extreme row drops the certificates; any other row's re-anchors the bound
// lines at now, on or beyond both the old lines and the row's new value.
// (A row read past the segments' end can only mis-anchor lines that the next
// read discards: evaluate reloads, and so drops them, first.)
func (e *Engine) rereadCorr(p ProcID) {
	tb := &e.tbl
	i := tb.rowOf[p]
	if i < 0 {
		return
	}
	r := &tb.rows[i]
	c := e.corr[p].Corr()
	if math.Float64bits(float64(c)) == math.Float64bits(float64(r.corr)) {
		return
	}
	r.corr = c
	e.ver++
	k := &tb.kin
	if !k.ok {
		return
	}
	if int(i) == k.hiRow || int(i) == k.loRow {
		k.ok = false
		return
	}
	k.mag = max(k.mag, r.scale())
	v, s := r.at(e.now), tb.slack(e.now)
	bLo, bHi := tb.bounds(e.now)
	k.bLo, k.bHi, k.at = min(bLo, v)-s, max(bHi, v)+s, e.now
}

// scan is the one routine that evaluates every local time: it stores the
// local time of every process of the table at real time t in lt and returns
// their min and max. Rows are read when the table holds the segments in
// force at t, the live interfaces otherwise; both orders and both float
// expressions are LocalTime's, so the result does not depend on which ran.
func (e *Engine) scan(t clock.Real, lt []clock.Local) (lo, hi clock.Local) {
	tb := &e.tbl
	lo, hi = clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	if tb.live || t < tb.from || t >= tb.until {
		for i, p := range tb.ids {
			v := e.clocks[p].At(t) + e.corr[p].Corr()
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
// lines, by a full scan otherwise.
func (e *Engine) evaluate(all bool) {
	tb := &e.tbl
	tb.evals++
	if e.now < tb.from || e.now >= tb.until {
		e.loadTable() // a clock crossed a breakpoint
	}
	if k := &tb.kin; k.ok && !all {
		hv, lv := tb.rows[k.hiRow].at(e.now), tb.rows[k.loRow].at(e.now)
		bLo, bHi := tb.bounds(e.now)
		s := tb.slack(e.now)
		// Strict, so a tie — or a NaN — always takes the full scan below.
		if hv > bHi+s && lv < bLo-s {
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
// allowance so they hold for the exact values. A live table, an empty one or
// one with no finite extremes keeps none.
func (e *Engine) certify() {
	tb := &e.tbl
	if tb.live {
		return
	}
	k := &tb.kin
	k.hiRow, k.loRow, k.mag = -1, -1, 0
	bLo, bHi := clock.Local(math.Inf(1)), clock.Local(math.Inf(-1))
	for i, v := range tb.lt {
		k.mag = max(k.mag, tb.rows[i].scale())
		if v == tb.hi && k.hiRow < 0 {
			k.hiRow = i
		} else {
			bHi = max(bHi, v)
		}
		if v == tb.lo && k.loRow < 0 {
			k.loRow = i
		} else {
			bLo = min(bLo, v)
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
// their local times at the current instant, from one full evaluation per
// configuration, made on the first call that wants it. Both slices are
// engine-owned: read-only, and valid until the configuration next changes.
func (e *Engine) LocalTimes() ([]ProcID, []clock.Local) {
	tb := e.table()
	if tb.ltVer != e.ver {
		e.evaluate(true)
	}
	return tb.ids, tb.lt
}

// LocalTimeSpread returns the minimum and maximum nonfaulty local times at
// real time t, together with how many processes exposed a local time. At the
// current instant it is served once per configuration — from the two
// certificated rows, or a full scan inside their guard band — so every
// observer interrogating the spread at a sample point (skew, validity, the
// invariant checkers) shares one evaluation, and none happens at all while
// the configuration is unchanged. Any other t is scanned afresh and not
// cached.
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
