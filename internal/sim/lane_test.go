package sim

import "testing"

// laneHarness drives an engine from a byte stream. In reference mode
// every lane append is a plain At, so a lane engine and a reference
// engine fed the same bytes must fire the same events at the same
// times: a lane is only a cheaper way to hold FIFO events.
type laneHarness struct {
	e      *Engine
	ref    bool
	lanes  [3]*Lane[int]
	last   [3]Time // each lane's last deadline
	data   []byte
	pos    int
	nextID int
	timers []Timer
	stops  []bool
	fired  []firing
}

type firing struct {
	id int
	at Time
}

func newLaneHarness(data []byte, ref bool) *laneHarness {
	h := &laneHarness{e: NewEngine(), ref: ref, data: data}
	if !ref {
		for k := range h.lanes {
			h.lanes[k] = NewLane(h.e, h.handle)
		}
	}
	return h
}

func (h *laneHarness) next() (byte, bool) {
	if h.pos >= len(h.data) {
		return 0, false
	}
	b := h.data[h.pos]
	h.pos++
	return b, true
}

// handle records a firing; one event in four schedules a follow-up
// (any kind but a nested Step) read from the stream.
func (h *laneHarness) handle(id int) {
	h.fired = append(h.fired, firing{id, h.e.Now()})
	if b, ok := h.next(); ok && b&3 == 0 {
		h.op(b>>2, false)
	}
}

func (h *laneHarness) event() func() {
	h.nextID++
	id := h.nextID
	return func() { h.handle(id) }
}

// op runs one engine call. Small delays make timestamp ties common.
func (h *laneHarness) op(b byte, top bool) {
	arg, _ := h.next()
	now := h.e.Now()
	d := Duration(arg%16) * Microsecond
	switch b % 6 {
	case 0:
		h.timers = append(h.timers, h.e.At(now.Add(d), h.event()))
	case 1:
		h.timers = append(h.timers, h.e.AtHead(now.Add(d), h.event()))
	case 2:
		h.timers = append(h.timers, h.e.Schedule(d, h.event()))
	case 3:
		if len(h.timers) > 0 {
			h.stops = append(h.stops, h.timers[int(arg)%len(h.timers)].Stop())
		}
	case 4:
		k := int(arg) % len(h.lanes)
		t := max(h.last[k], now).Add(Duration(arg/3%8) * Microsecond)
		h.last[k] = t
		if h.ref {
			h.e.At(t, h.event())
			return
		}
		h.nextID++
		h.lanes[k].At(t, h.nextID)
	case 5:
		if top {
			h.e.Step()
		}
	}
}

func sameRun(t *testing.T, step int, a, b *laneHarness) {
	t.Helper()
	if len(a.fired) != len(b.fired) {
		t.Fatalf("step %d: lane engine fired %d events, reference %d", step, len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("step %d: firing %d is %+v, reference %+v", step, i, a.fired[i], b.fired[i])
		}
	}
	if len(a.stops) != len(b.stops) {
		t.Fatalf("step %d: %d stops, reference %d", step, len(a.stops), len(b.stops))
	}
	for i := range a.stops {
		if a.stops[i] != b.stops[i] {
			t.Fatalf("step %d: stop %d reported %v, reference %v", step, i, a.stops[i], b.stops[i])
		}
	}
	if a.e.Executed != b.e.Executed || a.e.Pending() != b.e.Pending() {
		t.Fatalf("step %d: Executed/Pending %d/%d, reference %d/%d",
			step, a.e.Executed, a.e.Pending(), b.e.Executed, b.e.Pending())
	}
}

// FuzzLane runs random mixes of At, AtHead, Schedule, Timer.Stop, Step
// and appends to three lanes (non-decreasing deadlines per lane) on a
// lane engine and on a reference engine where every append is an At.
// Handlers schedule further events and append to lanes. Both must
// fire the same (id, time) sequence and agree on Executed and
// Pending after every step.
func FuzzLane(f *testing.F) {
	f.Add([]byte{4, 0, 4, 1, 4, 2, 0, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{4, 3, 4, 3, 0, 0, 1, 0, 4, 6, 5, 0, 5, 4, 5, 8, 5, 0, 5, 0})
	f.Add([]byte{2, 5, 3, 0, 4, 9, 4, 12, 1, 5, 5, 0, 3, 1, 5, 0, 5, 0, 5, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newLaneHarness(data, false)
		b := newLaneHarness(data, true)
		step := 0
		for a.pos < len(data) {
			op, _ := a.next()
			a.op(op, true)
			if op2, _ := b.next(); op2 != op {
				t.Fatalf("step %d: harnesses out of step", step)
			}
			b.op(op, true)
			sameRun(t, step, a, b)
			step++
		}
		for {
			sa, sb := a.e.Step(), b.e.Step()
			if sa != sb {
				t.Fatalf("drain: lane engine stepped %v, reference %v", sa, sb)
			}
			sameRun(t, step, a, b)
			step++
			if !sa {
				break
			}
		}
		if a.e.Pending() != 0 {
			t.Fatalf("drained engine reports %d pending", a.e.Pending())
		}
	})
}

func TestLaneOrderAndPending(t *testing.T) {
	e := NewEngine()
	var got []string
	l := NewLane(e, func(s string) { got = append(got, s) })
	at := Time(5 * Microsecond)
	e.At(at, func() { got = append(got, "at1") })
	l.At(at, "lane1")
	l.At(at, "lane2")
	e.AtHead(at, func() { got = append(got, "head") })
	l.At(at.Add(Microsecond), "lane3")
	e.At(at, func() { got = append(got, "at2") })
	stopped := e.At(at, func() { got = append(got, "stopped") })
	stopped.Stop()

	// The calendar holds one lane head; Pending counts the two lane
	// events queued behind it and not the stopped timer.
	if got, want := e.Pending(), 6; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if got, want := e.heapLen(), 5; got != want {
		t.Fatalf("calendar holds %d entries, want %d (one per lane head)", got, want)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"head", "at1", "lane1", "lane2", "at2", "lane3"}
	if len(got) != len(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 || e.Executed != 6 {
		t.Fatalf("after drain: Pending %d Executed %d, want 0 and 6", e.Pending(), e.Executed)
	}
}

func TestLaneRingWraps(t *testing.T) {
	e := NewEngine()
	var got []int
	l := NewLane(e, func(v int) { got = append(got, v) })
	// Keep the ring partly full while appending past its size several
	// times, so the head wraps and the ring grows mid-wrap.
	n := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < round%11+1; i++ {
			l.At(e.Now().Add(Duration(n)), n)
			n++
		}
		for i := 0; i < round%7; i++ {
			e.Step()
		}
	}
	for e.Step() {
	}
	if len(got) != n {
		t.Fatalf("fired %d lane events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("lane fired %d at position %d", v, i)
		}
	}
}

func TestLaneRejectsDecreasingDeadline(t *testing.T) {
	e := NewEngine()
	l := NewLane(e, func(int) {})
	l.At(Time(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("appending an earlier deadline must panic")
		}
	}()
	l.At(Time(9), 2)
}

func TestLaneAppendFireAllocs(t *testing.T) {
	e := NewEngine()
	l := NewLane(e, func(int) {})
	for i := 0; i < 4; i++ {
		l.At(e.Now().Add(Duration(i)*Microsecond), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.At(e.Now().Add(4*Microsecond), 0)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("lane append+fire: %v allocs/op, want 0", allocs)
	}
}
