package netem

import (
	"pase/internal/pkt"
	"pase/internal/sim"
)

// Port is one direction of a link: an egress queue plus a transmitter
// that clocks packets out at the port rate, followed by the link's
// propagation delay. Full-duplex links are a pair of connected ports.
type Port struct {
	// Name labels the port for diagnostics ("tor0->agg0").
	Name string

	eng   *sim.Engine
	queue Queue
	rate  BitRate
	delay sim.Duration

	peer  *Port
	owner Node

	busy bool
	// txDone frees the line after a serialization; deliver carries the
	// transmitted packets across the propagation delay. NewPort binds
	// both once, so a hop allocates nothing. A lane fits because a port
	// serializes one packet at a time over a fixed delay: its
	// deliveries are FIFO.
	txDone  func()
	deliver *sim.Lane[*pkt.Packet]

	// Faults, when set, lets a fault injector pause the transmitter
	// (link down) and discard transmitted packets (loss/corruption).
	Faults PortFaults

	// TxPackets / TxBytes count what was actually transmitted.
	TxPackets int64
	TxBytes   int64
	// busyTime accumulates transmitter-active time for utilization.
	busyTime sim.Duration
}

// PortFaults is the hook a fault injector installs on a port. Blocked
// pauses the transmitter before it dequeues (packets keep queueing and
// drain when the outage ends — see Kick); Lose is consulted after a
// packet consumed its serialization time and discards it in flight.
type PortFaults interface {
	Blocked(pt *Port) bool
	Lose(pt *Port, p *pkt.Packet) bool
}

// BlackholeObserver is optionally implemented by a PortFaults hook
// that wants drops caused by an outage counted separately: when the
// egress queue rejects a packet while the link is Blocked, the drop is
// a blackhole (the queue backed up because the transmitter is paused),
// not ordinary congestion overflow, and Send reports it here.
type BlackholeObserver interface {
	Blackholed(pt *Port, p *pkt.Packet)
}

// NewPort builds a port owned by node, draining q at rate with the
// given one-way propagation delay.
func NewPort(eng *sim.Engine, owner Node, q Queue, rate BitRate, delay sim.Duration) *Port {
	pt := &Port{eng: eng, owner: owner, queue: q, rate: rate, delay: delay}
	pt.txDone = pt.onTxDone
	pt.deliver = sim.NewLane(eng, pt.onDeliver)
	return pt
}

// Connect wires two ports as the two directions of one full-duplex link.
func Connect(a, b *Port) {
	a.peer = b
	b.peer = a
}

// Owner returns the node this port belongs to.
func (pt *Port) Owner() Node { return pt.owner }

// Engine returns the engine the port's transmitter is clocked by.
func (pt *Port) Engine() *sim.Engine { return pt.eng }

// Peer returns the port at the other end of the link.
func (pt *Port) Peer() *Port { return pt.peer }

// Queue returns the port's egress queue.
func (pt *Port) Queue() Queue { return pt.queue }

// Rate returns the port's transmit rate.
func (pt *Port) Rate() BitRate { return pt.rate }

// PropDelay returns the link's one-way propagation delay.
func (pt *Port) PropDelay() sim.Duration { return pt.delay }

// Send offers a packet to the egress queue and kicks the transmitter.
// Drops are absorbed by the queue discipline (and its stats).
func (pt *Port) Send(p *pkt.Packet) {
	if pt.peer == nil {
		panic("netem: Send on unconnected port " + pt.Name)
	}
	p.EnqAt = pt.eng.Now()
	if !pt.queue.Enqueue(p) {
		if pt.Faults != nil && pt.Faults.Blocked(pt) {
			if bo, ok := pt.Faults.(BlackholeObserver); ok {
				bo.Blackholed(pt, p)
			}
		}
		return
	}
	pt.pump()
}

// pump starts a transmission if the line is idle and a packet waits.
func (pt *Port) pump() {
	if pt.busy {
		return
	}
	if pt.Faults != nil && pt.Faults.Blocked(pt) {
		return
	}
	p := pt.queue.Dequeue()
	if p == nil {
		return
	}
	pt.busy = true
	ser := pt.rate.Serialize(p.Size)
	pt.busyTime += ser
	pt.TxPackets++
	pt.TxBytes += int64(p.Size)
	// Line becomes free after serialization; the packet lands at the
	// peer one propagation delay later.
	pt.eng.Schedule(ser, pt.txDone)
	if pt.Faults != nil && pt.Faults.Lose(pt, p) {
		// Dropped or corrupted on the wire: bandwidth was consumed but
		// the packet never reaches the peer.
		return
	}
	pt.deliver.At(pt.eng.Now().Add(ser+pt.delay), p)
}

func (pt *Port) onTxDone() {
	pt.busy = false
	pt.pump()
}

func (pt *Port) onDeliver(p *pkt.Packet) { pt.peer.owner.Receive(p, pt.peer) }

// Kick restarts a paused transmitter; the fault injector calls it when
// a link outage ends so queued packets resume draining.
func (pt *Port) Kick() { pt.pump() }

// BusyTime returns the accumulated transmitter-active time; divided by
// elapsed simulated time it gives the port's utilization.
func (pt *Port) BusyTime() sim.Duration { return pt.busyTime }

// Utilization reports the fraction of [0, now] the transmitter was busy.
func (pt *Port) Utilization() float64 {
	now := pt.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(pt.busyTime) / float64(now)
}
