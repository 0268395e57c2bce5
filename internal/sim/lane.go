package sim

import "fmt"

// Lane is a FIFO of events that share one handler and whose deadlines
// never decrease in append order — a link's deliveries, a stored
// schedule's arrivals. Only the lane's head sits in the engine's
// calendar, under the key it would have had as a plain At event; the
// rest wait in the lane's ring. Each append takes the next sequence
// number exactly as At does, so a lane fires its events in the same
// global order, with the same Executed and sim/events_fired counts, as
// one At per append — while the calendar stays as shallow as the
// number of lanes and no append allocates once the ring has grown.
//
// Lane events cannot be cancelled. Appending a deadline earlier than
// the lane's last one, or before now, panics.
type Lane[T any] struct {
	eng  *Engine
	fn   func(T)
	ev   event
	ring []laneSlot[T] // power-of-two ring; head..head+n-1 are queued
	head int
	n    int
}

type laneSlot[T any] struct {
	at  Time
	key uint64
	v   T
}

// laneMinRing is a lane ring's first allocation.
const laneMinRing = 8

// NewLane returns an empty lane on e whose events run fn with the
// value appended alongside them.
func NewLane[T any](e *Engine, fn func(T)) *Lane[T] {
	l := &Lane[T]{eng: e, fn: fn}
	l.ev = event{eng: e, lane: true}
	l.ev.fn = l.fire
	return l
}

// At appends an event running the lane's handler on v at time t.
func (l *Lane[T]) At(t Time, v T) {
	if l.n > 0 {
		if last := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; t < last {
			panic(fmt.Sprintf("sim: lane event at %v before the lane's last at %v", t, last))
		}
	}
	key := l.eng.nextKey(t) | tailBit
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneSlot[T]{at: t, key: key, v: v}
	l.n++
	if l.n == 1 {
		l.eng.push(t, key, &l.ev)
	} else {
		l.eng.queued++
	}
}

// grow doubles the ring, unrolling the queued events to its front.
func (l *Lane[T]) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = laneMinRing
	}
	ring := make([]laneSlot[T], size)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// fire runs the head event: it promotes the next queued event into the
// calendar first, so the handler may append to this lane freely.
func (l *Lane[T]) fire() {
	slot := &l.ring[l.head]
	v := slot.v
	*slot = laneSlot[T]{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.eng.queued--
		l.eng.push(next.at, next.key, &l.ev)
	}
	l.fn(v)
}
