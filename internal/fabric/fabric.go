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

// Packet is one packet on a Link or through a Switch, as a value: its
// size, the endpoint that receives it and the word that endpoint reads
// (a segment's sequence number, an ACK's packed fields). ECN is the OR
// of every mark the packet picked up on its way.
type Packet struct {
	Bytes int
	ECN   bool
	Seq   int64
	To    Endpoint
}

// Endpoint receives packets at the far end of a Link or a Switch. An
// endpoint is bound once (a flow's sink, say), so a packet carries it
// without allocating.
type Endpoint interface {
	Deliver(p Packet)
}

// deliverFunc is a callback as an Endpoint: it reads only the mark. A
// func value is pointer-shaped, so the conversion allocates nothing.
type deliverFunc func(ecn bool)

func (f deliverFunc) Deliver(p Packet) { f(p.ECN) }

// delivery is one packet in flight on a Link and the time it is due at
// the far end.
type delivery struct {
	pkt Packet
	at  sim.Time
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

// SendPacket serialises p onto the link and delivers it to p.To at the
// far end, its ECN field the OR of the mark it arrived with and this
// link's own, since switches propagate CE marks and never clear them.
// Deliveries fall due in send order, because busyUntil + prop never
// decreases, and same-time deliveries fire in scheduling order; so each
// delivery event pops the oldest packet in flight.
func (w *Link) SendPacket(p Packet) {
	at, ecn := w.SendAt(p.Bytes)
	if now := w.eng.Now(); at < now {
		at = now // as the engine clamps it (a negative propagation delay)
	}
	p.ECN = p.ECN || ecn
	w.inflight.Push(delivery{pkt: p, at: at})
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
	d.pkt.To.Deliver(d.pkt)
}

// RegisterProbes exposes the link's counters and queue state through the
// registry under prefix. Read-only over live state.
func (w *Link) RegisterProbes(r *stats.Registry, prefix string) {
	r.GaugeFunc(prefix+"bytes", func() float64 { return float64(w.bytes) })
	r.GaugeFunc(prefix+"packets", func() float64 { return float64(w.packets) })
	r.GaugeFunc(prefix+"marked", func() float64 { return float64(w.marked) })
	r.GaugeFunc(prefix+"backlog", func() float64 { return float64(w.Backlog()) })
}

// The fabric of the paper's testbed scaled to a cluster.
const (
	prop = 2 * sim.Microsecond // end-to-end propagation, split across hops
	ecnK = 150 << 10           // output-port ECN marking threshold, bytes (DCTCP's K)
)

// Config describes a switched fabric. Zero fields take the defaults of
// the paper's testbed scaled to a cluster: 100Gbps ports and a
// non-blocking core.
type Config struct {
	PortGbps float64 // per-port line rate (default 100)
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
func (c Config) PerHopProp() sim.Duration { return prop / c.hops() }

// Switch is an N-port switched fabric. Ports are created up front so the
// core link (when oversubscribed) can be sized to the port count. Each
// link runs on the engine of the shard that owns it, and every hop
// between links is a value posted through the shards' mail: on one
// engine (NewSwitch) it is an event there, between shards
// (NewShardedSwitch) a conservative cross-shard message.
type Switch struct {
	ports []*Port
	core  *Link // shared core hop, nil when non-blocking
	// shardOf[i] is the shard owning port i's links; the core link
	// belongs to shard 0. hops carries a packet from one link to the
	// next.
	shardOf []int
	hops    *sim.Mail[hop]
}

// hop is a packet on its way from one of the switch's links to the
// next: into the core link, or into port dst's downlink.
type hop struct {
	pkt  Packet
	dst  int
	core bool
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
	return NewShardedSwitch(sim.OneShard(eng), n, cfg, func(int) int { return 0 })
}

// NewShardedSwitch builds a fabric with n ports whose links live on the
// engines of shards: port i's uplink and downlink run on shard
// shardOf(i), the core link (when oversubscribed) on shard 0, and a hop
// between links of different shards crosses as a post. The per-hop
// propagation delay (Config.PerHopProp) guarantees every such hop a
// positive lookahead.
func NewShardedSwitch(shards *sim.Shards, n int, cfg Config, shardOf func(port int) int) (*Switch, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a switch needs at least 2 ports, got %d", n)
	}
	cfg = cfg.withDefaults()
	if cfg.Oversub < 0 {
		return nil, fmt.Errorf("fabric: Oversub must be >= 0, got %g", cfg.Oversub)
	}
	s := &Switch{shardOf: make([]int, n)}
	s.hops = sim.NewMail(shards, s.forward)
	// The end-to-end propagation budget is split across the hops a packet
	// takes, so a 2-port fabric matches a direct 2us link.
	hops := cfg.hops()
	perHop := prop / hops
	for i := 0; i < n; i++ {
		s.shardOf[i] = shardOf(i)
		eng := shards.Engine(s.shardOf[i])
		p := &Port{
			sw:   s,
			id:   i,
			up:   NewLink(eng, cfg.PortGbps, perHop),
			down: NewLink(eng, cfg.PortGbps, prop-perHop*(hops-1)),
		}
		p.down.SetECN(ecnK)
		s.ports = append(s.ports, p)
	}
	if cfg.Oversub > 0 {
		core := NewLink(shards.Engine(0), float64(n)*cfg.PortGbps/cfg.Oversub, perHop)
		core.SetECN(ecnK)
		s.core = core
	}
	return s, nil
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// ID returns the port's index.
func (p *Port) ID() int { return p.id }

// Send carries a packet of bytes from this port's host to dst's host;
// deliver fires there with the packet's ECN mark.
func (p *Port) Send(dst int, bytes int, deliver func(ecn bool)) {
	p.SendPacket(dst, Packet{Bytes: bytes, To: deliverFunc(deliver)})
}

// SendPacket carries pkt from this port's host to dst's host: serialise
// on the uplink, cross the (possibly oversubscribed) core, queue at the
// destination's downlink port FIFO, then deliver to pkt.To with the OR
// of every hop's ECN mark — switches propagate CE marks, they never
// clear them.
func (p *Port) SendPacket(dst int, pkt Packet) {
	s := p.sw
	if dst < 0 || dst >= len(s.ports) || dst == p.id {
		panic(fmt.Sprintf("fabric: port %d sending to invalid port %d", p.id, dst))
	}
	// Each stage's serialisation outcome is computed synchronously
	// (SendAt), so the hop into the next stage leaves as a timestamped
	// post at least one per-hop propagation in the future — the
	// lookahead a sharded switch relies on — and runs on the engine
	// owning the next link.
	gen := p.up.eng.Now()
	at, ecn := p.up.SendAt(pkt.Bytes)
	pkt.ECN = pkt.ECN || ecn
	h := hop{pkt: pkt, dst: dst, core: s.core != nil}
	next := s.shardOf[dst]
	if h.core {
		next = 0
	}
	s.hops.Post(s.shardOf[p.id], next, gen, at, h)
}

// forward carries a hop into its next link: through the core, whence it
// hops on to the destination's downlink, or into that downlink.
func (s *Switch) forward(h hop) {
	if !h.core {
		s.ports[h.dst].down.SendPacket(h.pkt)
		return
	}
	gen := s.core.eng.Now()
	at, ecn := s.core.SendAt(h.pkt.Bytes)
	h.pkt.ECN = h.pkt.ECN || ecn
	h.core = false
	s.hops.Post(0, s.shardOf[h.dst], gen, at, h)
}

// RegisterProbes exposes every port's uplink/downlink counters under
// prefix, e.g. "fabric.port0.up.bytes", and the shared core link's under
// prefix+"core." when the fabric is oversubscribed. A port's probes read
// links of the shard owning the port, and the core's those of shard 0.
func (s *Switch) RegisterProbes(r *stats.Registry, prefix string) {
	for _, p := range s.ports {
		p.up.RegisterProbes(r, fmt.Sprintf("%sport%d.up.", prefix, p.id))
		p.down.RegisterProbes(r, fmt.Sprintf("%sport%d.down.", prefix, p.id))
	}
	if s.core != nil {
		s.core.RegisterProbes(r, prefix+"core.")
	}
}
