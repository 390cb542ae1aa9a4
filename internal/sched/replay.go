package sched

import (
	"sync"

	"neu10/internal/compiler"
)

// Operator replay for solo runs.
//
// A run qualifies when it has one closed-loop tenant under NeuNH and no
// timeline sampling: the shape of every cost-model measurement. There
// an operator always starts from the same empty state — no ME held or
// blocked, only its freshly emitted first group present — and from then
// on every value the event loop computes depends only on the
// operator's µTOp groups: horizon derives dt from rem/speed, and the
// MaxCycles cap is the only place absolute time enters. The first time
// an operator is simulated, advance records on a tape, in order, every
// value the loop adds to now, meBusyArea, veBusyArea, bwArea and
// activeCycles. A later operator with the same groups applies those
// additions in the same order — the same float64 operands in the same
// order give the same bits — and then finishes through advanceGroup, so
// OpDurations, latencies and the request transition are computed as
// for a simulated operator.
//
// Tapes are keyed by the compiled op's Groups backing array: Compile
// lowers each distinct operator shape once and shares that array, so
// pointer identity implies an identical lowering. A replay that would
// reach MaxCycles or the event cap simulates the operator instead, so
// the stop lands on exactly the same event.

// tapeEvent is one recorded loop event. advance added dt to now and to
// the tenant's activeCycles (a qualifying run only has an event while
// a µTOp runs) and bw to bwArea; the event's meBusyArea and veBusyArea
// addends are tapes.me[..meEnd] and tapes.ve[..veEnd], following those
// of the event before.
type tapeEvent struct {
	dt, bw       float64
	meEnd, veEnd int
}

// tape locates one operator's recording in the tapes arenas.
type tape struct {
	groups   *compiler.GroupSpec // &op.Groups[0], the key
	n        int                 // len(op.Groups)
	ev0, ev1 int                 // events: tapes.evs[ev0:ev1]
	me0, ve0 int                 // first addends in tapes.me and tapes.ve
	dur      float64             // sum of the events' dt
}

// tapes holds every tape of one run in three arenas. A run takes one
// from tapePool and returns it emptied, so recording allocates nothing
// once the arenas have grown to a run's size.
type tapes struct {
	index  []tape
	evs    []tapeEvent
	me, ve []float64
}

var tapePool = sync.Pool{New: func() any { return new(tapes) }}

// replayHook is a test hook. When non-nil, Run hands it every run that
// qualifies for replay, and replays operators only if it returns true.
var replayHook func(cfg Config, spec TenantSpec) bool

// replayable reports whether the run qualifies for operator replay.
func (s *Simulator) replayable() bool {
	if len(s.tenants) != 1 || s.cfg.Policy != NeuNH || s.cfg.SampleEvery != 0 ||
		s.tenants[0].spec.ArrivalRate != 0 {
		return false
	}
	return replayHook == nil || replayHook(s.cfg, s.tenants[0].spec)
}

// find returns the tape recorded for op, or nil.
func (tp *tapes) find(op *compiler.CompiledOp) *tape {
	key := &op.Groups[0]
	for i := range tp.index {
		if x := &tp.index[i]; x.groups == key && x.n == len(op.Groups) {
			return x
		}
	}
	return nil
}

// release empties the arenas and returns them to the pool.
func (tp *tapes) release() {
	clear(tp.index) // drop the graph pointers
	tp.index, tp.evs, tp.me, tp.ve = tp.index[:0], tp.evs[:0], tp.me[:0], tp.ve[:0]
	tapePool.Put(tp)
}

// startOp starts t's current operator. In a replayable run, an
// operator that starts from the empty state — no µTOp present, no ME
// held or blocked — and has a tape that fits is replayed; one without a
// tape is taped as it is simulated. Once the run's requests are all
// done, the next request's first operator is only emitted, as the loop
// stops before simulating it.
func (s *Simulator) startOp(t *tenant) {
	if s.rp == nil || t.completed >= s.cfg.Requests || !s.opStartEmpty(t) {
		s.emitGroup(t)
		return
	}
	op := &t.spec.Graph.Ops[t.opIdx]
	if tp := s.rp.find(op); tp != nil {
		if s.tapeFits(tp) {
			s.replay(t, tp)
			return
		}
	} else {
		s.rp.index = append(s.rp.index, tape{groups: &op.Groups[0], n: len(op.Groups),
			ev0: len(s.rp.evs), me0: len(s.rp.me), ve0: len(s.rp.ve)})
		s.recording = true
	}
	s.emitGroup(t)
}

// opStartEmpty reports whether t's next operator would start from the
// empty state replay assumes.
func (s *Simulator) opStartEmpty(t *tenant) bool {
	if len(t.running) != 0 || t.readyME.Len() != 0 {
		return false
	}
	for m := range s.meHeld {
		if !s.meFree(m) {
			return false
		}
	}
	return true
}

// tapeFits reports whether replaying tp from the current state takes
// exactly the taped steps: no event reaches MaxCycles (where horizon
// would cap dt or the loop would stop) and the event cap holds. A tape
// whose recording horizon did cap dt never fits again: that dt equals
// MaxCycles minus an earlier now.
func (s *Simulator) tapeFits(tp *tape) bool {
	if s.events+uint64(tp.ev1-tp.ev0) > maxEvents {
		return false
	}
	// Every taped now stays below now+dur up to rounding (a relative
	// 1e-8 at the event cap), and every dt below dur: with this much
	// headroom no event comes near MaxCycles.
	if s.now+2*tp.dur < s.cfg.MaxCycles/2 {
		return true
	}
	now := s.now
	for _, e := range s.rp.evs[tp.ev0:tp.ev1] {
		if !(e.dt < s.cfg.MaxCycles-now) || now+e.dt >= s.cfg.MaxCycles {
			return false
		}
		now += e.dt
	}
	return true
}

// replay applies tp's additions in taped order and leaves t with the
// operator's last group finished, for complete's advanceGroup loop.
func (s *Simulator) replay(t *tenant, tp *tape) {
	s.replayed += uint64(tp.ev1 - tp.ev0)
	mi, vi := tp.me0, tp.ve0
	for _, e := range s.rp.evs[tp.ev0:tp.ev1] {
		s.events++
		for ; mi < e.meEnd; mi++ {
			s.meBusyArea += s.rp.me[mi]
		}
		for ; vi < e.veEnd; vi++ {
			s.veBusyArea += s.rp.ve[vi]
		}
		t.activeCycles += e.dt
		s.bwArea += e.bw
		s.now += e.dt
	}
	t.groupIdx = tp.n - 1
	t.inFlight = 0
}

// closeTape ends the tape being recorded, at its operator's end.
func (s *Simulator) closeTape() {
	tp := &s.rp.index[len(s.rp.index)-1]
	tp.ev1 = len(s.rp.evs)
	for _, e := range s.rp.evs[tp.ev0:tp.ev1] {
		tp.dur += e.dt
	}
	s.recording = false
}
