package netem

import (
	"testing"

	"pase/internal/pkt"
	"pase/internal/sim"
)

func benchPackets(n int) []*pkt.Packet {
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = &pkt.Packet{
			Flow: pkt.FlowID(i % 16), Seq: int32(i),
			Prio: int8(i % 8), Rank: int64(i % 977),
			Size: pkt.MTU, Type: pkt.Data, ECT: true,
		}
	}
	return ps
}

func benchQueue(b *testing.B, q Queue) {
	b.Helper()
	ps := benchPackets(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		p.CE = false
		q.Enqueue(p)
		if i%2 == 1 {
			q.Dequeue()
		}
	}
}

func BenchmarkDropTail(b *testing.B) { benchQueue(b, NewDropTail(225)) }
func BenchmarkREDECN(b *testing.B)   { benchQueue(b, NewREDECN(225, 65)) }
func BenchmarkPrio8(b *testing.B)    { benchQueue(b, NewPrio(8, 500, 65)) }
func BenchmarkPFabric(b *testing.B)  { benchQueue(b, NewPFabric(76)) }

// hopPair is a connected port pair whose far end discards arrivals:
// the sending port drains a Prio queue, the shape of a PASE fabric hop.
func hopPair() (*sim.Engine, *Port) {
	eng := sim.NewEngine()
	a := NewPort(eng, nopNode(1), NewPrio(8, 500, 65), 10*Gbps, 2*sim.Microsecond)
	b := NewPort(eng, nopNode(2), NewDropTail(8), 10*Gbps, 2*sim.Microsecond)
	Connect(a, b)
	return eng, a
}

// nopNode is a Node that discards what it receives.
type nopNode pkt.NodeID

func (n nopNode) ID() pkt.NodeID           { return pkt.NodeID(n) }
func (nopNode) Receive(*pkt.Packet, *Port) {}

// BenchmarkPortHop measures one packet's hop across a link: Send,
// the transmitter's tx-done and the delivery at the peer.
func BenchmarkPortHop(b *testing.B) {
	eng, pt := hopPair()
	p := benchPackets(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Send(p)
		for eng.Step() {
		}
	}
}
