package transport

import (
	"cmp"
	"slices"
	"testing"

	"pase/internal/check"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/workload"
)

// scheduleRun is the outcome of one stored-mode run: every flow record
// in completion order and the number of events fired.
type scheduleRun struct {
	records  []metrics.FlowRecord
	executed uint64
}

// runSchedule builds an 8-host rack with shallow buffers (so arrival
// order shows in drops and retransmissions), schedules flows with
// sched and runs it under the strict checker.
func runSchedule(t *testing.T, flows []workload.FlowSpec, sched func(*Driver, []workload.FlowSpec)) scheduleRun {
	t.Helper()
	eng := sim.NewEngine()
	chk := check.NewStrict(func() int64 { return int64(eng.Now()) })
	eng.AttachCheck(chk)
	net := topology.Build(eng, topology.SingleRack(8, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(12)
	}))
	d := NewDriver(net, func(*Sender) Control { return &nopControl{} })
	d.AttachCheck(chk)
	sched(d, flows)
	s, err := d.Run(sim.Time(30 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != len(flows) {
		t.Fatalf("completed %d of %d flows", s.Completed, len(flows))
	}
	return scheduleRun{records: slices.Clone(d.Collector.Records()), executed: eng.Executed}
}

// scheduleEachAt is the reference: one At per flow in the given order.
func scheduleEachAt(d *Driver, flows []workload.FlowSpec) {
	for _, f := range flows {
		if !f.Background {
			d.remaining++
		}
		d.Eng.At(f.Start, func() { d.startFlow(f) })
	}
}

// TestScheduleShuffledMatchesSorted feeds Schedule a shuffled flow list
// in which flows share start times in groups of three. Schedule must
// give exactly the outcome of one At per flow in the given order, and
// of the same list stable-sorted by Start: the equal-Start flows keep
// their relative order and the arrivals' sequence numbers stay one
// block.
func TestScheduleShuffledMatchesSorted(t *testing.T) {
	r := sim.NewRand(11)
	var flows []workload.FlowSpec
	for i := 0; i < 60; i++ {
		flows = append(flows, workload.FlowSpec{
			ID:    pkt.FlowID(i + 1),
			Src:   pkt.NodeID(i % 7),
			Dst:   7,
			Size:  r.UniformInt(1000, 60000),
			Start: sim.Time(0).Add(sim.Duration(i/3) * 20 * sim.Microsecond),
		})
	}
	shuffled := make([]workload.FlowSpec, len(flows))
	for i, j := range r.Perm(len(flows)) {
		shuffled[i] = flows[j]
	}
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, func(a, b workload.FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
	if slices.Equal(sorted, flows) {
		t.Fatal("the shuffle kept every equal-Start group in order; the test needs reordered ties")
	}

	got := runSchedule(t, shuffled, (*Driver).Schedule)
	for name, want := range map[string]scheduleRun{
		"one At per shuffled flow": runSchedule(t, shuffled, scheduleEachAt),
		"stable-sorted list":       runSchedule(t, sorted, (*Driver).Schedule),
	} {
		if got.executed != want.executed {
			t.Errorf("%s: %d events fired, want %d", name, got.executed, want.executed)
		}
		if !slices.Equal(got.records, want.records) {
			t.Errorf("%s: flow records differ", name)
		}
	}
	var retx int
	for _, rec := range got.records {
		retx += rec.Retx
	}
	if retx == 0 {
		t.Fatal("no retransmissions: the buffers are too deep for arrival order to matter")
	}
}
