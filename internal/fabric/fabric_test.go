package fabric

import (
	"testing"

	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// A link serialises back-to-back packets at its line rate: the second
// delivery waits for the first's serialisation slot.
func TestLinkSerialises(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 100, 2*sim.Microsecond) // 100Gbps, 2us prop
	var at []sim.Time
	for i := 0; i < 3; i++ {
		l.SendPacket(Packet{Bytes: 4096, To: deliverFunc(func(bool) { at = append(at, eng.Now()) })})
	}
	eng.Run(sim.Time(1) * sim.Millisecond)
	if len(at) != 3 {
		t.Fatalf("expected 3 deliveries, got %d", len(at))
	}
	ser := sim.Duration(4096 * 8 / 100) // ns per packet at 100Gbps
	for i, want := range []sim.Time{
		sim.Time(ser) + 2000,
		sim.Time(2*ser) + 2000,
		sim.Time(3*ser) + 2000,
	} {
		if at[i] != want {
			t.Fatalf("delivery %d at %d, want %d", i, at[i], want)
		}
	}
	if l.packets != 3 || l.bytes != 3*4096 {
		t.Fatalf("counters: packets=%d bytes=%d", l.packets, l.bytes)
	}
}

// A standing queue above the averaged threshold marks ECN; an idle link
// never marks.
func TestLinkECNMarksStandingQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 1, 0) // 1Gbps: 4KB takes ~32.8us to serialise
	l.SetECN(8 << 10)
	marked := false
	for i := 0; i < 64; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Microsecond, func() {
			l.SendPacket(Packet{Bytes: 4096, To: deliverFunc(func(ecn bool) { marked = marked || ecn })})
		})
	}
	eng.Run(sim.Time(10) * sim.Millisecond)
	if !marked {
		t.Fatal("standing queue above threshold never marked ECN")
	}

	idle := NewLink(eng, 100, 0)
	idle.SetECN(8 << 10)
	idle.SendPacket(Packet{Bytes: 4096, To: deliverFunc(func(ecn bool) {
		if ecn {
			t.Fatal("idle link marked ECN")
		}
	})})
	eng.Run(eng.Now() + sim.Time(1)*sim.Millisecond)
	if idle.marked != 0 {
		t.Fatalf("idle link marked %d packets", idle.marked)
	}
}

func TestSwitchValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := NewSwitch(eng, 1, Config{}); err == nil {
		t.Fatal("1-port switch accepted")
	}
	if _, err := NewSwitch(eng, 4, Config{Oversub: -1}); err == nil {
		t.Fatal("negative oversubscription accepted")
	}
	sw, err := NewSwitch(eng, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.ports) != 4 {
		t.Fatalf("ports = %d, want 4", len(sw.ports))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	sw.Port(0).Send(0, 4096, func(bool) {})
}

// The end-to-end propagation budget is preserved across the switch: a
// packet on an unloaded 2-hop fabric arrives exactly one serialisation
// per hop plus the 2us propagation later.
func TestSwitchPropagationBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, err := NewSwitch(eng, 2, Config{PortGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Time
	sw.Port(0).Send(1, 4096, func(bool) { got = eng.Now() })
	eng.Run(sim.Time(1) * sim.Millisecond)
	ser := sim.Time(4096 * 8 / 100)
	want := 2*ser + 2000 // two serialisations + the full 2us budget
	if got != want {
		t.Fatalf("delivery at %d, want %d", got, want)
	}
}

// Incast congestion lands at the destination's downlink: many sources
// sending to one port mark ECN there while the sources' uplinks stay
// clean.
func TestSwitchIncastMarksAtDownlink(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, err := NewSwitch(eng, 8, Config{PortGbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	for src := 1; src < 8; src++ {
		src := src
		for i := 0; i < 64; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Microsecond/3, func() {
				sw.Port(src).Send(0, 4096, func(ecn bool) {
					if ecn {
						marks++
					}
				})
			})
		}
	}
	eng.Run(sim.Time(10) * sim.Millisecond)
	if marks == 0 {
		t.Fatal("incast produced no ECN marks at the destination downlink")
	}
	for src := 1; src < 8; src++ {
		if m := sw.Port(src).up.marked; m != 0 {
			t.Fatalf("uplink %d marked %d packets; incast congestion must mark at the downlink", src, m)
		}
	}
	if sw.Port(0).down.marked == 0 {
		t.Fatal("destination downlink recorded no marks")
	}
}

// An oversubscribed core throttles cross-fabric aggregate bandwidth and
// shows up in the probe registry.
func TestSwitchOversubscribedCore(t *testing.T) {
	run := func(oversub float64) (last sim.Time) {
		eng := sim.NewEngine(1)
		sw, err := NewSwitch(eng, 4, Config{PortGbps: 100, Oversub: oversub})
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 4; src++ {
			src := src
			for i := 0; i < 256; i++ {
				eng.At(0, func() {
					sw.Port(src).Send((src+1)%4, 4096, func(bool) { last = eng.Now() })
				})
			}
		}
		eng.Run(sim.Time(100) * sim.Millisecond)
		return last
	}
	nonBlocking := run(0)
	throttled := run(4) // core at 1/4 aggregate
	if throttled <= nonBlocking {
		t.Fatalf("4:1 oversubscription did not slow the fabric: %d <= %d", throttled, nonBlocking)
	}

	eng := sim.NewEngine(1)
	sw, _ := NewSwitch(eng, 2, Config{Oversub: 2})
	reg := stats.NewRegistry()
	for i := 0; i < len(sw.ports); i++ {
		sw.RegisterPortProbes(reg, "fabric.", i)
	}
	sw.RegisterCoreProbes(reg, "fabric.")
	for _, name := range []string{"fabric.port0.up.bytes", "fabric.port1.down.backlog", "fabric.core.packets"} {
		if _, ok := reg.Value(name); !ok {
			t.Fatalf("probe %s not registered", name)
		}
	}
}

// PerHopProp splits the end-to-end budget over 2 hops on a crossbar and
// 3 when an oversubscribed core adds a shared stage.
func TestPerHopProp(t *testing.T) {
	if got := (Config{}).PerHopProp(); got != sim.Microsecond {
		t.Fatalf("non-blocking PerHopProp = %v, want 1us", got)
	}
	// 2us over 3 hops, truncated to whole nanoseconds.
	if got := (Config{Oversub: 4}).PerHopProp(); got != 666 {
		t.Fatalf("oversubscribed PerHopProp = %v, want 666ns", got)
	}
}

func TestShardedSwitchRoutesHops(t *testing.T) {
	for _, oversub := range []float64{0, 2} {
		eng := sim.NewEngine(1)
		sw, err := NewShardedSwitch(sim.OneShard(eng), 4, Config{Oversub: oversub}, func(int) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if oversub > 0 && sw.core == nil {
			t.Fatal("oversubscribed switch has no core link")
		}
		if oversub == 0 && sw.core != nil {
			t.Fatal("non-blocking switch grew a core link")
		}
		p := sw.Port(1)
		if p.ID() != 1 || p.up == nil || p.down == nil {
			t.Fatalf("port accessors: id=%d up=%v down=%v", p.ID(), p.up, p.down)
		}
		delivered := false
		p.Send(3, 4096, func(bool) { delivered = true })
		eng.Run(sim.Time(1) * sim.Millisecond)
		if !delivered {
			t.Fatalf("oversub %g: packet never delivered through the sharded path", oversub)
		}
		if sw.Port(3).down.packets != 1 {
			t.Fatalf("oversub %g: destination downlink saw %d packets, want 1",
				oversub, sw.Port(3).down.packets)
		}
	}
}

// A mark set upstream survives the downlink: behind a slow core that
// queues and marks, the downlink never queues, so every mark a packet
// arrives with is the core's, through NewSwitch and, with the
// destination port on the core's shard and the sources on another,
// NewShardedSwitch alike.
func TestSwitchPropagatesUpstreamMarks(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		cfg := Config{PortGbps: 100, Oversub: 8} // core at 50Gbps
		var sw *Switch
		var err error
		var run func(sim.Time)
		if sharded {
			shards := sim.NewShards(2, 1, cfg.PerHopProp())
			sw, err = NewShardedSwitch(shards, 4, cfg, func(p int) int { return min(p, 1) })
			run = shards.Run
		} else {
			eng := sim.NewEngine(1)
			sw, err = NewSwitch(eng, 4, cfg)
			run = eng.Run
		}
		if err != nil {
			t.Fatal(err)
		}
		var marks int64
		deliver := func(ecn bool) {
			if ecn {
				marks++
			}
		}
		for src := 1; src < 4; src++ {
			for i := 0; i < 64; i++ {
				sw.Port(src).Send(0, 4096, deliver)
			}
		}
		run(sim.Time(10) * sim.Millisecond)
		if down := sw.Port(0).down.marked; down != 0 {
			t.Fatalf("sharded=%v: downlink marked %d packets, want 0 behind a slower core", sharded, down)
		}
		if core := sw.core.marked; core == 0 || marks != core {
			t.Fatalf("sharded=%v: %d packets arrived marked, want the core's %d marks (> 0)", sharded, marks, core)
		}
	}
}
