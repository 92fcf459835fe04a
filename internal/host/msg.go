package host

import (
	"fastsafe/internal/nic"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Request/response machinery used by the latency-sensitive RPC experiment
// (Figure 9) and the real-application models (Figure 11: Redis, Nginx,
// SPDK). Messages are segmented into MTU-sized packets, reassembled at the
// far side, and re-sent wholesale on a timeout — the message layer has no
// congestion window (the apps are depth-limited closed loops).

// MsgPattern selects which side holds the bulk payload.
type MsgPattern int

const (
	// LocalServes: the remote client sends the request payload *into* the
	// local host (Rx-heavy there) and the local host answers with a small
	// response. Models a Redis SET server or an RPC server.
	LocalServes MsgPattern = iota
	// LocalClient: the local host sends a small request and receives the
	// bulk response (Rx-heavy locally). Models an Nginx/wrk or SPDK
	// client.
	LocalClient
)

// MsgConfig configures the request/response workload.
type MsgConfig struct {
	Pattern   MsgPattern
	Streams   int          // concurrent connections
	Depth     int          // outstanding requests per stream (pipelining)
	ReqBytes  int          // request payload
	RespBytes int          // response payload
	AppCPU    sim.Duration // local per-request application CPU
	Timeout   sim.Duration // lost-message resend timeout (default 5ms)
	Cores     int          // local cores the streams spread over (default host Cores)
	CoreBase  int          // first core index (default 0)
}

func (c MsgConfig) withDefaults(h *Host) MsgConfig {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.Depth <= 0 {
		c.Depth = 1
	}
	if c.ReqBytes <= 0 {
		c.ReqBytes = 64
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * sim.Millisecond
	}
	if c.Cores <= 0 {
		c.Cores = h.cfg.Cores
	}
	return c
}

// msgSeg is one segment of a message on the wire.
type msgSeg struct {
	stream int
	msg    int64
	idx    int
	count  int
	bytes  int
	req    bool // request vs response segment
}

// slotState tracks one outstanding request from the initiator's side.
type slotState struct {
	msg     int64
	start   sim.Time // first send (latency reference)
	lastTx  sim.Time // last (re)send, for the timeout
	retries int
}

type msgStream struct {
	id      int
	cpu     int
	nextMsg int64
	slots   map[int64]*slotState

	// Reassembly state, keyed by message id, on whichever side receives.
	localSeen  map[int64]map[int]bool
	remoteSeen map[int64]map[int]bool
	answered   map[int64]bool // LocalServes: requests already responded to
}

type msgApp struct {
	h   *Host
	cfg MsgConfig

	streams []*msgStream
	latency stats.Histogram

	completed      int64
	completedBytes int64
	retries        int64
}

// InstallMessages attaches a request/response workload. Call before Start.
func (h *Host) InstallMessages(cfg MsgConfig) *msgApp {
	cfg = cfg.withDefaults(h)
	app := &msgApp{h: h, cfg: cfg}
	for s := 0; s < cfg.Streams; s++ {
		app.streams = append(app.streams, &msgStream{
			id:         s,
			cpu:        cfg.CoreBase + s%cfg.Cores,
			slots:      make(map[int64]*slotState),
			localSeen:  make(map[int64]map[int]bool),
			remoteSeen: make(map[int64]map[int]bool),
			answered:   make(map[int64]bool),
		})
	}
	h.msgs = app
	if h.tele != nil {
		// The workload owns the latency histogram; the registry shares the
		// same object so telemetry readers see identical quantiles.
		h.tele.reg.AddHistogram(h.tele.name("rpc.latency_ns"), &app.latency)
		h.tele.reg.GaugeFunc(h.tele.name("rpc.completed"), func() float64 { return float64(app.completed) })
		h.tele.reg.GaugeFunc(h.tele.name("rpc.retries"), func() float64 { return float64(app.retries) })
	}
	return app
}

// Latency returns the completion-latency histogram (ns), measured at the
// initiator.
func (a *msgApp) Latency() *stats.Histogram { return &a.latency }

// Completed returns the number of finished exchanges.
func (a *msgApp) Completed() int64 { return a.completed }

// start kicks off Depth outstanding requests on every stream.
func (a *msgApp) start() {
	for i, s := range a.streams {
		s := s
		a.h.eng.At(sim.Time(i)*sim.Microsecond, func() {
			for d := 0; d < a.cfg.Depth; d++ {
				a.initiate(s)
			}
		})
	}
}

func segCount(bytes, mtu int) int {
	n := (bytes + mtu - 1) / mtu
	if n < 1 {
		n = 1
	}
	return n
}

func segBytes(total, mtu, idx int) int {
	rem := total - idx*mtu
	if rem > mtu {
		return mtu
	}
	if rem < 64 {
		return 64 // minimum wire frame
	}
	return rem
}

// initiate opens a new request slot on stream s and sends the request.
func (a *msgApp) initiate(s *msgStream) {
	m := s.nextMsg
	s.nextMsg++
	now := a.h.eng.Now()
	s.slots[m] = &slotState{msg: m, start: now, lastTx: now}
	a.sendRequest(s, m)
}

// sendRequest transmits (or retransmits) the request segments of msg m.
func (a *msgApp) sendRequest(s *msgStream, m int64) {
	n := segCount(a.cfg.ReqBytes, a.h.cfg.MTU)
	switch a.cfg.Pattern {
	case LocalServes:
		// Remote client -> local server over the wire.
		for i := 0; i < n; i++ {
			seg := msgSeg{stream: s.id, msg: m, idx: i, count: n,
				bytes: segBytes(a.cfg.ReqBytes, a.h.cfg.MTU, i), req: true}
			a.h.net.arriveFromRemote(s.cpu, seg.bytes, seg)
		}
	case LocalClient:
		// Local client -> remote server: each segment costs CPU + Tx DMA.
		for i := 0; i < n; i++ {
			seg := msgSeg{stream: s.id, msg: m, idx: i, count: n,
				bytes: segBytes(a.cfg.ReqBytes, a.h.cfg.MTU, i), req: true}
			a.h.net.sendTx(nic.Packet{CPU: s.cpu, Bytes: seg.bytes, Payload: seg}, a.h.cfg.AckTxCost)
		}
	}
}

// onDeliver handles a message segment DMA'd into local memory.
func (a *msgApp) onDeliver(pkt nic.Packet, seg msgSeg) {
	s := a.streams[seg.stream]
	a.h.core(s.cpu).Do(func() sim.Duration {
		cost := a.h.net.stackCost()
		switch a.cfg.Pattern {
		case LocalServes:
			if !seg.req {
				panic("host: response segment delivered to serving host")
			}
			if s.answered[seg.msg] {
				// Duplicate of an already-served request: re-answer once
				// the tail segment shows up (the response may be lost).
				if seg.idx == seg.count-1 {
					cost += a.respond(s, seg.msg)
				}
				return cost
			}
			if a.assemble(s.localSeen, seg) {
				s.answered[seg.msg] = true
				cost += a.cfg.AppCPU
				cost += a.respond(s, seg.msg)
			}
		case LocalClient:
			if seg.req {
				panic("host: request segment delivered to requesting host")
			}
			slot, ok := s.slots[seg.msg]
			if !ok {
				return cost // stale segment of a completed exchange
			}
			if a.assemble(s.localSeen, seg) {
				cost += a.cfg.AppCPU
				a.complete(s, slot, int64(a.cfg.RespBytes))
			}
		}
		return cost
	}, nil)
}

// assemble records a segment, reporting true when the message is complete.
// Completed messages are pruned so duplicates don't re-trigger.
func (a *msgApp) assemble(seen map[int64]map[int]bool, seg msgSeg) bool {
	set := seen[seg.msg]
	if set == nil {
		set = make(map[int]bool)
		seen[seg.msg] = set
	}
	set[seg.idx] = true
	if len(set) == seg.count {
		delete(seen, seg.msg)
		return true
	}
	return false
}

// respond sends the response for msg m from the local host (LocalServes).
// Returns the CPU cost of queueing (mapping costs are charged per segment
// by sendTx).
func (a *msgApp) respond(s *msgStream, m int64) sim.Duration {
	n := segCount(a.cfg.RespBytes, a.h.cfg.MTU)
	for i := 0; i < n; i++ {
		seg := msgSeg{stream: s.id, msg: m, idx: i, count: n,
			bytes: segBytes(a.cfg.RespBytes, a.h.cfg.MTU, i), req: false}
		a.h.net.sendTx(nic.Packet{CPU: s.cpu, Bytes: seg.bytes, Payload: seg}, a.h.cfg.AckTxCost)
	}
	return 0
}

// onTxDone routes a locally-sent segment onto the wire toward the remote.
func (a *msgApp) onTxDone(pkt nic.Packet, seg msgSeg) {
	s := a.streams[seg.stream]
	a.h.net.toRemote.Send(pkt.Bytes, func(bool) {
		a.remoteReceive(s, seg)
	})
}

// remoteReceive is the abstract remote host's side: it assembles segments
// instantly, answers requests (LocalClient) or completes exchanges
// (LocalServes).
func (a *msgApp) remoteReceive(s *msgStream, seg msgSeg) {
	switch a.cfg.Pattern {
	case LocalServes:
		if seg.req {
			panic("host: request segment arrived back at remote client")
		}
		slot, ok := s.slots[seg.msg]
		if !ok {
			return // stale response for a completed exchange
		}
		if a.assemble(s.remoteSeen, seg) {
			a.complete(s, slot, int64(a.cfg.ReqBytes))
		}
	case LocalClient:
		if !seg.req {
			panic("host: response segment arrived at remote server")
		}
		if a.assemble(s.remoteSeen, seg) {
			// Remote server answers instantly with the bulk response.
			n := segCount(a.cfg.RespBytes, a.h.cfg.MTU)
			for i := 0; i < n; i++ {
				rseg := msgSeg{stream: s.id, msg: seg.msg, idx: i, count: n,
					bytes: segBytes(a.cfg.RespBytes, a.h.cfg.MTU, i), req: false}
				a.h.net.arriveFromRemote(s.cpu, rseg.bytes, rseg)
			}
		}
	}
}

// complete finishes one exchange: record latency, free the slot, start the
// next request.
func (a *msgApp) complete(s *msgStream, slot *slotState, payload int64) {
	a.latency.Observe(int64(a.h.eng.Now() - slot.start))
	a.completed++
	a.completedBytes += payload
	delete(s.slots, slot.msg)
	delete(s.answered, slot.msg)
	a.initiate(s)
}

// housekeeping retries requests whose exchange has stalled past the
// timeout (a segment was tail-dropped at the NIC).
func (a *msgApp) housekeeping(now sim.Time) {
	for _, s := range a.streams {
		for _, slot := range s.slots {
			if now-slot.lastTx >= a.cfg.Timeout {
				slot.lastTx = now
				slot.retries++
				a.retries++
				// Clear partial reassembly so the resend starts clean.
				delete(s.localSeen, slot.msg)
				delete(s.remoteSeen, slot.msg)
				delete(s.answered, slot.msg)
				a.sendRequest(s, slot.msg)
			}
		}
	}
}
