package sim

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%1000)*Microsecond, func() {})
		if i%1024 == 1023 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(Millisecond, func() {})
		t.Stop()
	}
}

// BenchmarkScheduleFireSteady measures the steady-state schedule+fire
// cycle with a populated calendar — the shape of the simulator's inner
// loop (every fired packet event schedules its successors).
func BenchmarkScheduleFireSteady(b *testing.B) {
	e := NewEngine()
	const depth = 512
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(Duration(i)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(depth)*Microsecond, fn)
		e.Step()
	}
	for e.Step() {
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExp(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}

// BenchmarkLaneFire measures the steady-state append+fire cycle of a
// lane holding 512 queued events — the shape of a busy link's
// deliveries: the calendar holds one entry however deep the lane is.
func BenchmarkLaneFire(b *testing.B) {
	e := NewEngine()
	const depth = 512
	l := NewLane(e, func(int) {})
	for i := 0; i < depth; i++ {
		l.At(Time(0).Add(Duration(i)*Microsecond), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.At(e.Now().Add(Duration(depth)*Microsecond), i)
		e.Step()
	}
	for e.Step() {
	}
}
