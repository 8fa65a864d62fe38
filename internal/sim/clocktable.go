package sim

import (
	"math"

	"repro/internal/clock"
)

// This file is the engine's read side for local times: one clock table, one
// evaluation per configuration.
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
//     every row is re-read.
//
// Per version the local times are evaluated once, in a loop over the rows
// using the expression clock.PiecewiseLinear.At uses (see clock.Segment), so
// the result is bit-identical to the live LocalTime walk. LocalTimeSpread and
// LocalTimes serve every reader from that pass. A §4.2 process adjusts once
// per round, after n arrivals, so the post-delivery sample of all but ~1 in n
// deliveries finds the version unchanged and costs nothing.
//
// What the table cannot hold falls back to the live At/Corr walk inside the
// same scan routine:
//
//   - a clock that is not a *clock.PiecewiseLinear (clock.Offset, a foreign
//     Clock) makes the whole scan live; a multi-segment clock crossing a
//     breakpoint reloads the rows first and stays on the table;
//   - a historical query (t ≠ now) is never cached, and walks live when t
//     lies outside the segments the rows hold;
//   - shard engines: a peer's correction moves inside another shard's
//     window, outside this engine's Receive, so their scan is always live and
//     the ShardedEngine advances shard 0's version at every window cut, where
//     the observers fire.
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

type clockTable struct {
	ids   []ProcID      // nonfaulty CORR-holding processes, ascending; nil until first read
	rows  []clockRow    // parallel to ids; nil on shard engines
	lt    []clock.Local // parallel to ids: the local times of pass passVer
	hist  []clock.Local // scratch of the same length for scans at t ≠ now
	rowOf []int32       // ProcID → index into ids, −1 outside the table; nil on shard engines
	// live routes the scan through At/Corr: a shard engine, or some row's
	// clock is not a *clock.PiecewiseLinear.
	live bool
	// Every row's segment is the one At reads over [from, until).
	from, until clock.Real
	lo, hi      clock.Local // extremes of lt
	passVer     uint64      // configuration version lt, lo, hi belong to; 0 = none yet
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
	case e.acting >= 0:
		if e.tbl.rowOf != nil { // a shard engine mirrors no corrections
			e.rereadCorr(e.acting)
		}
	default: // actingAll
		e.loadTable()
	}
}

func (e *Engine) buildTable() {
	tb := &e.tbl
	tb.ids = make([]ProcID, 0, len(e.nonfaulty))
	for _, p := range e.nonfaulty {
		if e.corr[p] != nil {
			tb.ids = append(tb.ids, p)
		}
	}
	n := len(tb.ids)
	buf := make([]clock.Local, 2*n)
	tb.lt, tb.hist = buf[:n:n], buf[n:]
	if e.local == nil {
		tb.rows = make([]clockRow, n)
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
// current instant and its correction — and starts a new configuration
// version. It runs when the table is built, when Run is entered, after a
// timeline action, and when real time leaves [from, until).
func (e *Engine) loadTable() {
	tb := &e.tbl
	e.ver++
	tb.live = e.local != nil
	tb.from, tb.until = clock.Real(math.Inf(-1)), clock.Real(math.Inf(1))
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
	}
	if tb.live {
		tb.from, tb.until = clock.Real(math.Inf(-1)), clock.Real(math.Inf(1))
	}
}

// rereadCorr compares p's correction with its mirror and, if it moved,
// updates the row and starts a new configuration version.
func (e *Engine) rereadCorr(p ProcID) {
	i := e.tbl.rowOf[p]
	if i < 0 {
		return
	}
	r := &e.tbl.rows[i]
	if c := e.corr[p].Corr(); math.Float64bits(float64(c)) != math.Float64bits(float64(r.corr)) {
		r.corr = c
		e.ver++
	}
}

// scan is the one routine that evaluates local times: it stores the local
// time of every process of the table at real time t in lt and returns their
// min and max. Rows are read when the table holds the segments in force at t,
// the live interfaces otherwise; both orders and both float expressions are
// LocalTime's, so the result does not depend on which ran.
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

// pass returns the table with lt, lo and hi evaluated for the current
// configuration, scanning only if the version moved since the last pass.
func (e *Engine) pass() *clockTable {
	tb := e.table()
	if tb.passVer != e.ver {
		e.evaluate()
	}
	return tb
}

func (e *Engine) evaluate() {
	tb := &e.tbl
	if e.now < tb.from || e.now >= tb.until {
		e.loadTable() // a clock crossed a breakpoint
	}
	tb.lo, tb.hi = e.scan(e.now, tb.lt)
	tb.passVer = e.ver
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
// their local times at the current instant, from the one pass per
// configuration that LocalTimeSpread shares. Both slices are engine-owned:
// read-only, and valid until the configuration next changes.
func (e *Engine) LocalTimes() ([]ProcID, []clock.Local) {
	tb := e.pass()
	return tb.ids, tb.lt
}

// LocalTimeSpread returns the minimum and maximum nonfaulty local times at
// real time t, together with how many processes exposed a local time. At the
// current instant it is served from the configuration's pass, so every
// observer interrogating the spread at a sample point (skew, validity, the
// invariant checkers) shares one scan, and none happens at all while the
// configuration is unchanged. Any other t is scanned afresh and not cached.
func (e *Engine) LocalTimeSpread(t clock.Real) (lo, hi clock.Local, count int) {
	if t == e.now {
		tb := e.pass()
		return tb.lo, tb.hi, len(tb.ids)
	}
	tb := e.table()
	lo, hi = e.scan(t, tb.hist)
	return lo, hi, len(tb.ids)
}
