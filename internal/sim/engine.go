package sim

import (
	"fmt"

	"pase/internal/check"
	"pase/internal/obs"
)

// Engine is the discrete-event simulation core. It owns the virtual
// clock and the pending-event calendar. All model components schedule
// callbacks on the engine; Run drains the calendar in time order.
//
// Engine is not safe for concurrent use: the whole simulation runs on
// one goroutine, which keeps event execution deterministic. Distinct
// engines share nothing and may run on distinct goroutines.
//
// Internally the calendar is a 4-ary min-heap whose entries carry
// their ordering key inline, next to a pointer to a recycled event
// record: comparisons never dereference, cancellation is O(1) lazy
// deletion (the record is marked dead and discarded when it surfaces),
// and fired or dead records return to a bounded free list instead of
// the garbage collector. A Lane keeps only its head event in the heap
// and the rest in its own ring, so FIFO streams such as a link's
// deliveries add one calendar entry, not one per packet in flight.
type Engine struct {
	now     Time
	events  eventHeap
	free    []*event // recycled records, capped at maxFree
	dead    int      // stopped events still sitting in the heap
	queued  int      // lane events waiting behind their lane's head
	seq     uint64   // monotonically increasing tie-breaker
	stopped bool
	// Executed counts the number of events dispatched so far; it is
	// exposed for tests and for runaway-simulation guards.
	Executed uint64
	// Limit, when non-zero, aborts Run with an error after that many
	// events. It protects against accidental infinite event loops.
	Limit uint64

	// Observability instruments, nil until Instrument is called. All
	// are nil-safe no-ops, so the hot path carries them unconditionally.
	obsFired   *obs.Counter
	obsSched   *obs.Counter
	obsStopped *obs.Counter
	obsHeap    *obs.Gauge

	// chk, when non-nil, verifies dispatch-order invariants (clock
	// monotonicity). Nil (the default) costs one pointer test per event.
	chk *check.Checker
}

// Instrument attaches run-wide observability to the engine. Passing a
// nil registry detaches it (the default state). The recorded streams:
//
//	sim/events_fired      events dispatched by Step
//	sim/events_scheduled  events added by At/Schedule/AtHead and
//	                      lane appends
//	sim/timers_stopped    successful Timer.Stop cancellations
//	sim/heap_depth        calendar entries high-watermark: live
//	                      events, stopped timers not yet discarded and
//	                      one head per non-empty lane (lane events
//	                      queued behind a head are not counted)
func (e *Engine) Instrument(reg *obs.Registry) {
	e.obsFired = reg.Counter("sim/events_fired")
	e.obsSched = reg.Counter("sim/events_scheduled")
	e.obsStopped = reg.Counter("sim/timers_stopped")
	e.obsHeap = reg.Gauge("sim/heap_depth")
}

// AttachCheck attaches a runtime invariant checker to the engine;
// passing nil detaches it (the default state). The engine verifies
// that dispatched event timestamps never run backwards.
func (e *Engine) AttachCheck(c *check.Checker) { e.chk = c }

// maxFree bounds the free list so a burst of scheduling does not pin
// memory for the rest of the run. Records beyond the cap are left to
// the garbage collector.
const maxFree = 4096

// compactMinDead is the floor below which Stop never triggers heap
// compaction; above it, compaction runs once dead events outnumber
// live ones, keeping the heap at most ~2× the live event count.
const compactMinDead = 64

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// event is the record behind a calendar entry. Records are owned by
// the engine and recycled after they fire or are cancelled;
// outstanding Timer handles detect reuse through the generation
// counter. A lane's record is the lane's own and is never recycled.
type event struct {
	fn      func()
	eng     *Engine
	gen     uint32
	stopped bool
	lane    bool
}

// Timer is a handle to a scheduled event, used for cancellation. The
// zero Timer is valid and inert: Stop and Pending on it report false.
// A Timer whose event already fired is equally inert — the generation
// check makes Stop on a stale handle a no-op even though the engine
// has recycled the underlying record for a different event.
type Timer struct {
	ev  *event
	gen uint32
	at  Time
}

// Stop cancels the timer. It reports whether the timer was still
// pending (false if it had already fired or been stopped). The event
// record stays in the calendar, marked dead, and is dropped when it
// reaches the top of the heap — cancellation never pays a sift.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.stopped {
		return false
	}
	ev.stopped = true
	ev.fn = nil // release the closure immediately
	e := ev.eng
	e.obsStopped.Inc()
	e.dead++
	if e.dead > compactMinDead && e.dead > len(e.events)-e.dead {
		e.compact()
	}
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.stopped
}

// Deadline returns the time at which the timer fires (or fired).
func (t Timer) Deadline() Time { return t.at }

// Schedule runs fn after delay d. A negative delay is treated as zero
// (fn runs at the current instant, after already-queued events for
// this instant that were scheduled earlier).
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.schedule(t, fn, false)
}

func (e *Engine) schedule(t Time, fn func(), head bool) Timer {
	key := e.nextKey(t)
	if !head {
		key |= tailBit
	}
	ev := e.alloc()
	ev.fn = fn
	e.push(t, key, ev)
	return Timer{ev: ev, gen: ev.gen, at: t}
}

// nextKey takes the next sequence number for an event at t, counting
// it as scheduled. Scheduling in the past panics.
func (e *Engine) nextKey(t Time) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.obsSched.Inc()
	return e.seq
}

// push adds a calendar entry.
func (e *Engine) push(t Time, key uint64, ev *event) {
	e.events.push(entry{at: t, key: key, ev: ev})
	e.obsHeap.Update(int64(len(e.events)))
}

// AtHead runs fn at absolute time t, ahead of every At/Schedule event
// sharing that timestamp (AtHead events among themselves keep FIFO
// order). It exists for lazily scheduled flow arrivals: a schedule
// materialized before the run naturally holds lower sequence numbers
// than anything the run itself enqueues, so its arrivals win all
// timestamp ties — an arrival scheduled mid-run can only reproduce
// that order by jumping the tie-break. Like At, scheduling in the past
// panics.
func (e *Engine) AtHead(t Time, fn func()) Timer {
	return e.schedule(t, fn, true)
}

// alloc takes an event record off the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// recycle invalidates outstanding handles and returns the record to
// the free list (or the garbage collector once the list is full).
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.stopped = false
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

// peek discards dead records until the earliest live event surfaces
// at the top of the heap, reporting false when the calendar holds no
// live events.
func (e *Engine) peek() bool {
	for len(e.events) > 0 {
		ev := e.events[0].ev
		if !ev.stopped {
			return true
		}
		e.events.popTop()
		e.dead--
		e.recycle(ev)
	}
	return false
}

// Step executes the single earliest pending event. It reports false
// when the calendar holds no live events.
func (e *Engine) Step() bool {
	if !e.peek() {
		return false
	}
	at, ev := e.events[0].at, e.events[0].ev
	e.events.popTop()
	if e.chk != nil {
		e.chk.Monotonic("sim/engine", int64(e.now), int64(at))
	}
	e.now = at
	e.Executed++
	e.obsFired.Inc()
	fn := ev.fn
	if !ev.lane {
		e.recycle(ev)
	}
	fn()
	return true
}

// Run drains the calendar until it is empty or Stop is called.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if e.Limit > 0 && e.Executed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to the deadline. Events scheduled beyond it stay queued.
func (e *Engine) RunUntil(deadline Time) error {
	e.stopped = false
	for !e.stopped {
		if e.Limit > 0 && e.Executed >= e.Limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		if !e.peek() || e.events[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// Stop makes Run return after the event currently executing.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of live (not cancelled) events queued,
// lane events waiting behind their lane's head included.
func (e *Engine) Pending() int { return len(e.events) - e.dead + e.queued }

// compact filters dead records out of the heap in one O(n) pass and
// re-establishes the heap property, bounding the memory cancelled
// events can hold.
func (e *Engine) compact() {
	live := e.events[:0]
	for _, x := range e.events {
		if x.ev.stopped {
			e.recycle(x.ev)
			continue
		}
		live = append(live, x)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = entry{}
	}
	e.events = live
	e.dead = 0
	e.events.heapify()
}

// freeLen reports the free-list size (test hook).
func (e *Engine) freeLen() int { return len(e.free) }

// heapLen reports the calendar size including dead records (test hook).
func (e *Engine) heapLen() int { return len(e.events) }

// entry is one calendar slot. The ordering key sits inline so heap
// sifts compare two words without dereferencing the record: at, then
// key, whose top bit is tailBit for At/Schedule events and clear for
// AtHead events, above the event's sequence number.
type entry struct {
	at  Time
	key uint64
	ev  *event
}

// tailBit marks an At/Schedule key: AtHead keys lack it and so sort
// first among events sharing a timestamp.
const tailBit = 1 << 63

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// eventHeap is a 4-ary min-heap ordered by (time, head, seq): AtHead
// events sort before At events at the same instant, and seq breaks the
// remaining ties in FIFO scheduling order. Since every (time, seq) key
// is unique the pop order is a total order — runs are deterministic
// regardless of heap shape. The wider node fans out fewer cache-missed
// levels per sift than a binary heap, which is what the hot path pays.
type eventHeap []entry

func (h *eventHeap) push(x entry) {
	*h = append(*h, x)
	h.siftUp(len(*h) - 1)
}

// popTop removes the minimum element. Callers peek h[0] first.
func (h *eventHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	old[n] = entry{}
	*h = old[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

func (h eventHeap) siftUp(i int) {
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = x
}

// heapify restores the heap property over the whole slice.
func (h eventHeap) heapify() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}
