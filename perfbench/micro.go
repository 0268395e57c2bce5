package main

import (
	"fmt"
	"sort"
	"time"

	"pase"
	"pase/internal/core/arbitration"
	"pase/internal/experiments"
	"pase/internal/metrics"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
)

// The micro-timings call one layer's public functions directly, on
// inputs shaped like what the workload's Obs run observed. Each reports
// the median over batches of ns per operation.

const microBatch = 1024

// dropPathRatio is the drop ratio from which queueOpNS times the drop
// path; below it drops are too rare to shape a queue operation's cost.
const dropPathRatio = 0.01

// timeOps runs batch(microBatch) until d has passed (at least three
// times) and returns the median ns per operation.
func timeOps(d time.Duration, batch func(n int)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < d {
		t := time.Now()
		batch(microBatch)
		per = append(per, float64(time.Since(t).Nanoseconds())/microBatch)
	}
	return median(per)
}

// scheduleFireNS times one sim.Engine.Schedule plus one Step with the
// calendar held at the observed peak depth.
func scheduleFireNS(depth int, d time.Duration) float64 {
	depth = max(depth, 1)
	e := sim.NewEngine()
	r := sim.NewRand(1)
	horizon := int64(depth) * int64(sim.Microsecond)
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.Schedule(sim.Duration(1+r.Int63n(horizon)), fn)
	}
	return timeOps(d, func(n int) {
		for i := 0; i < n; i++ {
			e.Schedule(sim.Duration(1+r.Int63n(horizon)), fn)
			e.Step()
		}
	})
}

// queueOpNS times one Enqueue attempt, plus the Dequeues that keep the
// queue at the observed mean occupancy, on the workload's discipline.
// Where drops are common (dropPathRatio or more of arrivals) the queue
// is instead held full and dequeued just often enough that the observed
// share of attempts drops.
func queueOpNS(p pase.Protocol, snap *pase.Snapshot, dropRatio float64, d time.Duration) float64 {
	var q netem.Queue
	typ, size, limit := pkt.Data, int32(pkt.MTU), experiments.DCTCPQueueSize
	switch p {
	case pase.ProtocolPASE:
		limit = experiments.PASEQueueSize
		q = netem.NewPrio(experiments.PASENumQueues, limit, experiments.MarkingThreshold)
	case pase.ProtocolExpressPass:
		// The credit class carries most of this discipline's arrivals,
		// and most of its drops.
		cq := netem.NewCreditQueue(experiments.DCTCPQueueSize, experiments.CreditQueueSize, experiments.CreditCtrlQueueSize)
		var now sim.Time
		cq.BindClock(func() sim.Time { now += sim.Time(sim.Microsecond); return now })
		q, typ, size, limit = cq, pkt.Credit, pkt.CreditSize, experiments.CreditQueueSize
	case pase.ProtocolDCTCP:
		q = netem.NewREDECN(experiments.DCTCPQueueSize, experiments.MarkingThreshold)
	default:
		panic(fmt.Sprintf("perfbench: no queue discipline for %s", p))
	}

	bands := prioWeights(snap)
	r := sim.NewRand(1)
	ps := make([]*pkt.Packet, 4096)
	for i := range ps {
		ps[i] = &pkt.Packet{Flow: pkt.FlowID(i % 64), Seq: int32(i), Type: typ, Size: size,
			Prio: pickBand(bands, r.Float64()), ECT: true}
	}
	occ := min(meanOccupancy(snap), limit-1)
	if dropRatio >= dropPathRatio {
		occ = limit
	} else {
		dropRatio = 0
	}
	next := 0
	enqueue := func() {
		p := ps[next]
		next = (next + 1) % len(ps)
		p.CE = false
		q.Enqueue(p)
	}
	for i := 0; i < occ; i++ {
		enqueue()
	}
	var credit float64
	return timeOps(d, func(n int) {
		for i := 0; i < n; i++ {
			enqueue()
			credit += 1 - dropRatio
			for credit >= 1 {
				credit--
				q.Dequeue()
			}
		}
	})
}

// prioWeights is the cumulative share of PRIO-queue enqueues per band in
// the Obs run (nil without PRIO queues).
func prioWeights(s *pase.Snapshot) []float64 {
	var counts []float64
	var total float64
	for b := 0; ; b++ {
		h, ok := s.Histograms[fmt.Sprintf("queue/prio/band%d/occ", b)]
		if !ok {
			break
		}
		total += float64(h.Count)
		counts = append(counts, total)
	}
	if total == 0 {
		return nil
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts
}

func pickBand(cum []float64, u float64) int8 {
	return int8(min(sort.SearchFloat64s(cum, u), max(len(cum)-1, 0)))
}

// arbUpdateNS times one arbitration.Arbitrator.Update with the observed
// peak number of live allocations registered.
func arbUpdateNS(live int, d time.Duration) float64 {
	live = max(live, 1)
	eng := sim.NewEngine()
	a := arbitration.NewArbitrator(0, 10*netem.Gbps, experiments.PASENumQueues, 40*netem.Mbps, 300*sim.Microsecond, eng.Now)
	for i := 0; i < live; i++ {
		a.Update(pkt.FlowID(i), int64(i*1000), netem.Gbps)
	}
	k := 0
	return timeOps(d, func(n int) {
		for i := 0; i < n; i++ {
			k++
			a.Update(pkt.FlowID(k%live), int64(k%live*1000+k%7), netem.Gbps)
		}
	})
}

// collectorAddNS times one Add on the workload's flow collector — the
// stored Collector, refilled from empty every run's worth of flows, or
// the streaming sketch — with FCTs spread around the observed AFCT.
func collectorAddNS(stream bool, flows int, afct int64, d time.Duration) float64 {
	r := sim.NewRand(1)
	recs := make([]metrics.FlowRecord, 4096)
	for i := range recs {
		fct := sim.Duration(1 + r.Exp(float64(max(afct, 1))))
		recs[i] = metrics.FlowRecord{ID: uint64(i), Size: 100_000, Start: 0, Finish: sim.Time(fct), Done: true}
	}
	var add func(metrics.FlowRecord)
	if stream {
		add = metrics.NewStreamCollector(0).Add
	} else {
		c := metrics.NewCollector()
		added := 0
		add = func(rec metrics.FlowRecord) {
			if added == flows {
				c, added = metrics.NewCollector(), 0
			}
			c.Add(rec)
			added++
		}
	}
	k := 0
	return timeOps(d, func(n int) {
		for i := 0; i < n; i++ {
			add(recs[k%len(recs)])
			k++
		}
	})
}
