package fabric

import (
	"strings"
	"testing"

	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// TestLinkSendToDeliverAllocs locks in the bound delivery: with a bound
// endpoint, a packet from SendPacket to delivery allocates nothing.
func TestLinkSendToDeliverAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100, 2*sim.Microsecond)
	got := 0
	deliver := deliverFunc(func(bool) { got++ })
	for i := 0; i < 8; i++ {
		l.SendPacket(Packet{Bytes: 4096, To: deliver})
	}
	eng.RunAll()
	if n := testing.AllocsPerRun(1000, func() {
		l.SendPacket(Packet{Bytes: 4096, To: deliver})
		l.SendPacket(Packet{Bytes: 64, To: deliver})
		eng.RunAll()
	}); n != 0 {
		t.Errorf("send-to-deliver: %v allocs, want 0", n)
	}
	if want := 8 + 2*1001; got != want {
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
}

// TestPortHopAllocs locks in the valued hop: a packet from Port.Send to
// delivery allocates nothing, through a crossbar and through an
// oversubscribed core, because each hop between links is a value posted
// to the switch's bound handler and each link's delivery ring holds the
// packet, ECN mark included.
func TestPortHopAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name    string
		oversub float64
		want    float64
	}{{"crossbar", 0, 0}, {"oversubscribed core", 2, 0}} {
		eng := sim.NewEngine(1)
		sw, err := NewSwitch(eng, 4, Config{Oversub: tc.oversub})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		deliver := func(bool) { got++ }
		for i := 0; i < 8; i++ {
			sw.Port(1+i%3).Send(0, 4096, deliver)
		}
		eng.RunAll()
		if n := testing.AllocsPerRun(1000, func() {
			sw.Port(1).Send(0, 4096, deliver)
			eng.RunAll()
		}); n > tc.want {
			t.Errorf("%s: port hop allocates %v objects, want at most %v", tc.name, n, tc.want)
		}
		if want := 8 + 1001; got != want {
			t.Fatalf("%s: delivered %d packets, want %d", tc.name, got, want)
		}
	}
}

// TestLinkDeliveryOrderIsChecked forges a delivery event that fires when
// the oldest packet in flight is not due, and one with nothing in
// flight: both are bugs, and each panics naming the fabric.
func TestLinkDeliveryOrderIsChecked(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if s, _ := r.(string); !strings.HasPrefix(s, "fabric: ") {
				t.Fatalf("%s: panic %v does not name the fabric", name, r)
			}
		}()
		f()
	}
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100, 2*sim.Microsecond)
	l.SendPacket(Packet{Bytes: 4096, To: deliverFunc(func(bool) {})})
	expectPanic("early delivery", l.deliverNext)

	eng = sim.NewEngine(1)
	l = NewLink(eng, 100, 2*sim.Microsecond)
	expectPanic("delivery with nothing in flight", l.deliverNext)
}
