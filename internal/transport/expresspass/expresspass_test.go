package expresspass

import (
	"math"
	"testing"

	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/sim"
	"pase/internal/topology"
	"pase/internal/transport"
)

// TestCreditRateFeedback drives one feedback update per case. Credit
// loss over the echoed credits at or under the target raises the rate
// toward the ceiling with w=(w+wmax)/2; above it the rate scales by
// (1-loss)(1+target) and w halves, floored at wmin. The rate is
// clamped to [MinRate, maxRate], and a period with no echoed credits
// changes nothing.
func TestCreditRateFeedback(t *testing.T) {
	cfg := DefaultConfig()
	const maxRate = 10e9
	cases := []struct {
		name      string
		rate, w   float64
		sent, got int64
		wantRate  float64
		wantW     float64
	}{
		{"no loss raises the rate", 1e9, 0.1, 10, 10,
			0.7*1e9 + 0.3*maxRate*1.125, 0.3},
		{"loss at the target still raises", 1e9, 0.1, 8, 7,
			0.7*1e9 + 0.3*maxRate*1.125, 0.3},
		{"more data than echoed credits reads as no loss", 2e9, 0.5, 4, 6,
			0.5*2e9 + 0.5*maxRate*1.125, 0.5},
		{"increase is capped at the line", 9e9, 0.5, 10, 10, maxRate, 0.5},
		{"loss above the target backs off", 4e9, 0.4, 10, 5,
			4e9 * 0.5 * 1.125, 0.2},
		{"w halves no lower than wmin", 4e9, 0.015, 10, 8,
			4e9 * 0.8 * 1.125, cfg.WMin},
		{"back-off is floored at MinRate", 20e6, 0.2, 10, 1,
			float64(cfg.MinRate), 0.1},
		{"no echoed credits: no update", 3e9, 0.2, 0, 0, 3e9, 0.2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := &creditState{
				rate: c.rate, w: c.w, period: 40 * sim.Microsecond,
				baseAck: 100, ackCredits: 100 + c.sent,
				baseData: 50, dataRcvd: 50 + c.got,
			}
			now := sim.Time(sim.Millisecond)
			cs.update(now, maxRate, &cfg)
			if math.Abs(cs.rate-c.wantRate) > 1e-6*c.wantRate {
				t.Errorf("rate = %.6g, want %.6g", cs.rate, c.wantRate)
			}
			if math.Abs(cs.w-c.wantW) > 1e-12 {
				t.Errorf("w = %v, want %v", cs.w, c.wantW)
			}
			if cs.baseAck != cs.ackCredits || cs.baseData != cs.dataRcvd {
				t.Errorf("period baselines not advanced: %+v", cs)
			}
			if cs.periodEnd != now.Add(cs.period) {
				t.Errorf("periodEnd = %v, want %v", cs.periodEnd, now.Add(cs.period))
			}
		})
	}
}

// creditRig attaches ExpressPass to a two-host rack and opens crediting
// at host 0 for a flow from host 1 that has no sender, so the credits
// are wasted and no data ever returns.
func creditRig(t *testing.T) (*sim.Engine, *System, *creditState) {
	t.Helper()
	eng := sim.NewEngine()
	net := topology.Build(eng, topology.SingleRack(2, func(topology.QueueKind) netem.Queue {
		return netem.NewDropTail(1000)
	}))
	sys := Attach(transport.NewDriver(net, nil), DefaultConfig())
	h := sys.hosts[0]
	h.onCreditReq(&pkt.Packet{Type: pkt.CreditReq, Flow: 1, Src: 1, Dst: 0, Seq: 1000})
	cs := h.flows[1]
	if cs == nil {
		t.Fatal("credit request opened no crediting state")
	}
	return eng, sys, cs
}

// TestCreditTickBoundOnce pins the credit loop's handler binding: a
// steady tick (credit out, across the rack, wasted at the far host)
// allocates the credit packet and nothing else.
func TestCreditTickBoundOnce(t *testing.T) {
	eng, sys, _ := creditRig(t)
	h := sys.hosts[0]
	nextCredit := func() {
		for n := h.credits; h.credits == n; {
			if !eng.Step() {
				t.Fatal("crediting stopped early")
			}
		}
	}
	for i := 0; i < 20; i++ { // grow the rings and free lists
		nextCredit()
	}
	if allocs := testing.AllocsPerRun(50, nextCredit); allocs != 1 {
		t.Fatalf("steady credit tick: %v allocs, want 1 (the credit packet)", allocs)
	}
	if sys.hosts[1].wasted == 0 {
		t.Fatal("credits never reached the far host")
	}
}

// TestCreditsStopAfterIdleTimeout: with no data and no further
// request, crediting stops at the first tick past the idle timeout and
// the state is dropped.
func TestCreditsStopAfterIdleTimeout(t *testing.T) {
	eng, sys, cs := creditRig(t)
	h := sys.hosts[0]
	idle := sim.Time(0).Add(DefaultConfig().IdleTimeout)
	base := netem.BitRate(cs.rate).Serialize(pkt.MTU)
	maxGap := base + sim.Duration(float64(base)*DefaultConfig().Jitter)

	eng.RunUntil(idle - 1)
	if cs.stopped || h.flows[1] != cs {
		t.Fatal("crediting stopped before the idle timeout")
	}
	if min := int64(DefaultConfig().IdleTimeout / maxGap); cs.creditsSent < min {
		t.Fatalf("sent %d credits before the timeout, want at least %d", cs.creditsSent, min)
	}
	eng.RunUntil(idle.Add(maxGap))
	if !cs.stopped || len(h.flows) != 0 {
		t.Fatal("crediting state survived the idle timeout by more than one credit gap")
	}
	sent := h.credits
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if h.credits != sent || eng.Pending() != 0 {
		t.Fatalf("credits went on after the idle stop: %d then %d, %d events pending",
			sent, h.credits, eng.Pending())
	}
}
