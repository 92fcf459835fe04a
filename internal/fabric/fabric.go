// Package fabric models the cluster network: point-to-point links and a
// switched fabric connecting N hosts through per-port queues.
//
// Link is the building block — a single-server serialisation queue (a
// NIC egress or a switch port) followed by a fixed propagation delay,
// with EWMA-averaged ECN marking the way the paper's DCTCP-enabled
// switches mark. A Link on its own is the degenerate two-node fabric:
// the single-host experiments' "wire" to the abstract remote host is
// exactly one Link per direction.
//
// Switch composes Links into a switched network: every host owns a Port
// with an uplink Link into the switch and a downlink Link out of it, and
// an optional shared core Link models oversubscription. Congestion under
// incast lands where it does on real hardware — the receiver's output
// (downlink) port FIFO — and that queue is where ECN marks.
//
// Everything here is engine-confined and deterministic: no goroutines,
// no wall-clock time, no shared mutable state between fabrics.
package fabric

import (
	"fmt"

	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Link models one direction of a network path: a single-server
// serialisation queue (the sender NIC egress / switch port) followed by
// a fixed propagation delay. The egress queue marks ECN above a
// threshold, as the DCTCP-enabled switch in the paper's testbed does —
// when the receiver's PCIe is not the bottleneck, this is where the
// standing queue lives.
type Link struct {
	eng       *sim.Engine
	gbps      float64
	prop      sim.Duration
	ecnK      int // marking threshold in averaged queued bytes (0 = never mark)
	busyUntil sim.Time
	bytes     int64
	packets   int64
	marked    int64

	// Marking uses an exponentially-weighted moving average of the
	// backlog (time constant ecnTau) so transient ACK-clocked bursts pass
	// unmarked while standing queues mark — switches average similarly,
	// and without this the simulation marks on every burst and DCTCP
	// shadows bottlenecks it cannot actually see.
	avgBacklog float64
	lastSample sim.Time

	// inflight holds sent packets not yet delivered, in send order, and
	// deliverFn (deliverNext bound once) is the one callback every
	// delivery event fires.
	inflight  sim.FIFO[delivery]
	deliverFn func()
}

// delivery is one packet in flight on a Link: the callback to fire, the
// packet's ECN mark and the time it is due at the far end.
type delivery struct {
	deliver func(ecn bool)
	ecn     bool
	at      sim.Time
}

// ecnTau is the backlog-averaging time constant.
const ecnTau = 20 * sim.Microsecond

// NewLink returns a link with the given line rate and one-way
// propagation delay.
func NewLink(eng *sim.Engine, gbps float64, prop sim.Duration) *Link {
	w := &Link{eng: eng, gbps: gbps, prop: prop}
	w.deliverFn = w.deliverNext
	return w
}

// SetECN enables ECN marking when the egress backlog exceeds k bytes.
func (w *Link) SetECN(k int) { w.ecnK = k }

// Backlog returns the bytes currently queued for serialisation.
func (w *Link) Backlog() int {
	now := w.eng.Now()
	if w.busyUntil <= now {
		return 0
	}
	return int(float64(w.busyUntil-now) * w.gbps / 8)
}

// SendAt serialises a packet onto the link and returns the virtual time
// it reaches the far end together with its ECN mark, without scheduling
// the delivery. The returned time is always at least the link's
// propagation delay in the future, which is what lets a sharded fabric
// turn the delivery into a cross-shard message with positive lookahead.
// Callers must run on the link's owning engine.
func (w *Link) SendAt(bytes int) (at sim.Time, ecn bool) {
	now := w.eng.Now()
	if dt := now - w.lastSample; dt > 0 {
		// Discrete-time EWMA: decay toward the instantaneous backlog.
		alpha := float64(dt) / float64(dt+ecnTau)
		w.avgBacklog += (float64(w.Backlog()) - w.avgBacklog) * alpha
		w.lastSample = now
	}
	ecn = w.ecnK > 0 && w.avgBacklog > float64(w.ecnK)
	if ecn {
		w.marked++
	}
	start := now
	if w.busyUntil > start {
		start = w.busyUntil
	}
	ser := sim.Duration(float64(bytes) * 8 / w.gbps)
	w.busyUntil = start + ser
	w.bytes += int64(bytes)
	w.packets++
	return w.busyUntil + w.prop, ecn
}

// Send serialises a packet onto the link; deliver fires at the far end
// with the packet's ECN mark. Deliveries fall due in send order, because
// busyUntil + prop never decreases, and same-time deliveries fire in
// scheduling order; so each delivery event pops the oldest packet in
// flight.
func (w *Link) Send(bytes int, deliver func(ecn bool)) {
	w.sendMarked(bytes, false, deliver)
}

// sendMarked is Send for a packet that reaches this link carrying an
// upstream ECN mark: deliver fires with the OR of that mark and this
// link's own, since switches propagate CE marks and never clear them.
// The mark rides in the delivery ring, so a hop needs no closure to add
// it.
func (w *Link) sendMarked(bytes int, marked bool, deliver func(ecn bool)) {
	at, ecn := w.SendAt(bytes)
	if now := w.eng.Now(); at < now {
		at = now // as the engine clamps it (a negative propagation delay)
	}
	w.inflight.Push(delivery{deliver: deliver, ecn: ecn || marked, at: at})
	w.eng.At(at, w.deliverFn)
}

// deliverNext fires the oldest packet in flight, which must be due now.
func (w *Link) deliverNext() {
	if w.inflight.Len() == 0 {
		panic("fabric: link delivery with no packet in flight")
	}
	d := w.inflight.Pop()
	if now := w.eng.Now(); d.at != now {
		panic(fmt.Sprintf("fabric: link delivery due at %v fired at %v", d.at, now))
	}
	d.deliver(d.ecn)
}

// RegisterProbes exposes the link's counters and queue state through the
// registry under prefix. Read-only over live state.
func (w *Link) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"bytes", func() float64 { return float64(w.bytes) })
	r.GaugeFunc(prefix+"packets", func() float64 { return float64(w.packets) })
	r.GaugeFunc(prefix+"marked", func() float64 { return float64(w.marked) })
	r.GaugeFunc(prefix+"backlog", func() float64 { return float64(w.Backlog()) })
}

// Config describes a switched fabric. Zero fields take the defaults of
// the paper's testbed scaled to a cluster: 100Gbps ports, 2us end-to-end
// propagation, the 150KB DCTCP marking threshold, and a non-blocking
// core.
type Config struct {
	PortGbps float64      // per-port line rate (default 100)
	Prop     sim.Duration // end-to-end propagation, split across hops (default 2us)
	ECNK     int          // output-port ECN marking threshold, bytes (default 150KB)
	// Oversub is the core oversubscription factor: the shared core link
	// runs at ports*PortGbps/Oversub. 0 (or 1 with no explicit request)
	// leaves the core non-blocking — packets pass straight from uplink
	// to downlink with no shared hop, a crossbar.
	Oversub float64
}

func (c Config) withDefaults() Config {
	if c.PortGbps == 0 {
		c.PortGbps = 100
	}
	if c.Prop == 0 {
		c.Prop = 2 * sim.Microsecond
	}
	if c.ECNK == 0 {
		c.ECNK = 150 << 10
	}
	return c
}

// hops returns the number of store-and-forward hops a packet takes:
// uplink + downlink, plus the shared core when oversubscribed.
func (c Config) hops() sim.Duration {
	if c.Oversub > 0 {
		return 3
	}
	return 2
}

// PerHopProp returns the per-hop propagation delay the switch splits its
// end-to-end budget into. Every packet that leaves a port spends at least
// this long in flight before it can touch another port's state, so it is
// the conservative lower bound on cross-shard event causality — the
// lookahead a sharded cluster hands to sim.NewShards.
func (c Config) PerHopProp() sim.Duration {
	c = c.withDefaults()
	return c.Prop / c.hops()
}

// Router posts a packet's hop into the next stage of the switch. gen is
// the virtual time the hop was generated at and at its delivery time;
// implementations must schedule fn at time at on the engine owning the
// destination (sim.Shards.Post has exactly this contract). The switch
// guarantees at >= gen + PerHopProp() for every hop it routes.
type Router interface {
	// PostPort schedules fn on the engine owning port dst. src is the
	// port whose engine generated the hop, or CorePort when the hop
	// leaves the shared core link.
	PostPort(src, dst int, gen, at sim.Time, fn func())
	// PostCore schedules fn on the engine owning the core link.
	PostCore(src int, gen, at sim.Time, fn func())
}

// engineRouter schedules every hop on one engine, the router of a
// switch whose links all share it.
type engineRouter struct{ eng *sim.Engine }

func (r engineRouter) PostPort(_, _ int, _, at sim.Time, fn func()) { r.eng.At(at, fn) }
func (r engineRouter) PostCore(_ int, _, at sim.Time, fn func())    { r.eng.At(at, fn) }

// CorePort is the pseudo port id routers see as the source of hops that
// leave the shared core link.
const CorePort = -1

// Switch is an N-port switched fabric. Ports are created up front so the
// core link (when oversubscribed) can be sized to the port count. Each
// link runs on the engine that owns it, and every hop between links is
// posted through the switch's Router: NewSwitch's schedules it on the
// one engine, NewShardedSwitch's crosses engine shards as a
// conservative message.
type Switch struct {
	cfg    Config
	ports  []*Port
	core   *Link // shared core hop, nil when non-blocking
	router Router
}

// Port is one host's attachment point: an uplink into the switch and a
// downlink out of it. The downlink is the congestion point under incast,
// so it carries the ECN marker; the uplink cannot queue beyond its own
// host's egress and stays unmarked.
type Port struct {
	sw   *Switch
	id   int
	up   *Link // host -> switch
	down *Link // switch -> host
}

// NewSwitch builds a fabric with n ports whose links all run on eng.
func NewSwitch(eng *sim.Engine, n int, cfg Config) (*Switch, error) {
	return newSwitch(n, cfg, func(int) *sim.Engine { return eng }, eng, engineRouter{eng})
}

// NewShardedSwitch builds a fabric whose ports live on per-shard engines:
// port i's uplink and downlink are driven by engOf(i), the core link
// (when oversubscribed) by coreEng, and hops between ports owned by
// different engines cross through r. The per-hop propagation delay
// (Config.PerHopProp) guarantees every routed hop a positive lookahead.
func NewShardedSwitch(n int, cfg Config, engOf func(port int) *sim.Engine, coreEng *sim.Engine, r Router) (*Switch, error) {
	if r == nil {
		return nil, fmt.Errorf("fabric: a sharded switch needs a router")
	}
	if cfg.withDefaults().PerHopProp() <= 0 {
		return nil, fmt.Errorf("fabric: sharded switch needs a positive per-hop propagation, got %v", cfg.withDefaults().PerHopProp())
	}
	return newSwitch(n, cfg, engOf, coreEng, r)
}

func newSwitch(n int, cfg Config, engOf func(port int) *sim.Engine, coreEng *sim.Engine, r Router) (*Switch, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a switch needs at least 2 ports, got %d", n)
	}
	cfg = cfg.withDefaults()
	switch {
	case cfg.Prop < 0:
		return nil, fmt.Errorf("fabric: Prop must be >= 0, got %v", cfg.Prop)
	case cfg.Oversub < 0:
		return nil, fmt.Errorf("fabric: Oversub must be >= 0, got %g", cfg.Oversub)
	}
	s := &Switch{cfg: cfg, router: r}
	// The end-to-end propagation budget is split across the hops a packet
	// takes, so a 2-port fabric matches a direct 2us link.
	hops := cfg.hops()
	prop := cfg.Prop / hops
	for i := 0; i < n; i++ {
		eng := engOf(i)
		p := &Port{
			sw:   s,
			id:   i,
			up:   NewLink(eng, cfg.PortGbps, prop),
			down: NewLink(eng, cfg.PortGbps, cfg.Prop-prop*(hops-1)),
		}
		p.down.SetECN(cfg.ECNK)
		s.ports = append(s.ports, p)
	}
	if cfg.Oversub > 0 {
		core := NewLink(coreEng, float64(n)*cfg.PortGbps/cfg.Oversub, prop)
		core.SetECN(cfg.ECNK)
		s.core = core
	}
	return s, nil
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// ID returns the port's index.
func (p *Port) ID() int { return p.id }

// Send carries a packet from this port's host to dst's host: serialise
// on the uplink, cross the (possibly oversubscribed) core, queue at the
// destination's downlink port FIFO, then deliver with the OR of every
// hop's ECN mark — switches propagate CE marks, they never clear them.
func (p *Port) Send(dst int, bytes int, deliver func(ecn bool)) {
	if dst < 0 || dst >= len(p.sw.ports) || dst == p.id {
		panic(fmt.Sprintf("fabric: port %d sending to invalid port %d", p.id, dst))
	}
	out, r := p.sw.ports[dst], p.sw.router
	// Each stage's serialisation outcome is computed synchronously
	// (SendAt), so the hop into the next stage leaves as a timestamped
	// post at least one per-hop propagation in the future — the
	// lookahead a sharded router relies on — and runs on the engine
	// owning the next link.
	gen := p.up.eng.Now()
	upAt, ecnUp := p.up.SendAt(bytes)
	if core := p.sw.core; core != nil {
		r.PostCore(p.id, gen, upAt, func() {
			coreAt, ecnCore := core.SendAt(bytes)
			r.PostPort(CorePort, dst, upAt, coreAt, func() {
				out.down.sendMarked(bytes, ecnUp || ecnCore, deliver)
			})
		})
		return
	}
	r.PostPort(p.id, dst, gen, upAt, func() {
		out.down.sendMarked(bytes, ecnUp, deliver)
	})
}

// RegisterPortProbes exposes port i's uplink/downlink counters under
// prefix, e.g. "fabric.port0.up.bytes". A cluster registers each port's
// probes into the registry of the shard owning the port, so probe reads
// stay engine-confined.
func (s *Switch) RegisterPortProbes(r *stats.Registry, prefix string, i int) {
	p := s.ports[i]
	p.up.RegisterProbes(r, fmt.Sprintf("%sport%d.up.", prefix, p.id))
	p.down.RegisterProbes(r, fmt.Sprintf("%sport%d.down.", prefix, p.id))
}

// RegisterCoreProbes exposes the shared core link's counters under
// prefix (a no-op for non-blocking fabrics). A cluster calls this
// against the core-owning shard's registry.
func (s *Switch) RegisterCoreProbes(r *stats.Registry, prefix string) {
	if s.core != nil {
		s.core.RegisterProbes(r, prefix+"core.")
	}
}
