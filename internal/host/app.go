package host

import (
	"fmt"

	"fastsafe/internal/cohort"
	"fastsafe/internal/core"
	"fastsafe/internal/fabric"
	"fastsafe/internal/nic"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The request/response app. Two arrival sources drive it:
//
//   - the closed loop (InstallMessages): Figure 9's RPC and the Redis,
//     Nginx and SPDK models of Figures 11–12. Streams × Depth requests
//     are outstanding; each completion starts the next request on its
//     stream, and a request unanswered after Timeout is resent whole —
//     the message layer has no congestion window.
//   - the open loop (Config.Serve): a serving fleet driven by
//     internal/cohort — Poisson arrivals, bounded-Pareto sizes and
//     connection churn. Requests arrive at the configured rate however
//     far behind the host falls, which makes protection cost visible as
//     tail latency instead of lost goodput; a request whose segments
//     were dropped is abandoned, never retried. Churn is the load-bearing
//     part: every connection owns a buffer of pages mapped at birth
//     and unmapped at death, and every response rides freshly mapped Tx
//     buffers, so IOVA allocation and (un)map rates scale with churn ×
//     request rate — the regime that decides whether the rcache
//     magazines absorb the storm.
//
// Both split a message into MTU segments, each carrying its index as
// its Seq. A request travels into the local host (LocalServes, the
// fleet) or out of it (LocalClient), and its response the other way; the
// far end is the abstract remote, which has no CPU cost. In the local
// NIC a segment carries its request record as nic.Packet.Payload; on the
// wire it is a fabric.Packet to one of the record's two endpoints, like
// a flow's segments and ACKs.

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

// validate rejects what no default stands for: a negative core index,
// application CPU cost or resend timeout.
func (c MsgConfig) validate() error {
	switch {
	case c.AppCPU < 0:
		return fmt.Errorf("host: MsgConfig.AppCPU must be >= 0, got %v", c.AppCPU)
	case c.Timeout < 0:
		return fmt.Errorf("host: MsgConfig.Timeout must be >= 0, got %v", c.Timeout)
	case c.CoreBase < 0:
		return fmt.Errorf("host: MsgConfig.CoreBase must be >= 0, got %d", c.CoreBase)
	}
	return nil
}

// ServeConfig configures the serving-fleet workload on a host. Its
// traffic shape is fixed by the serve* constants: a production-ish
// profile that loads the host's cores (five by default) to ~50% before
// protection costs.
type ServeConfig struct {
	Conns  int     // fleet population (constant; dead connections are reborn)
	Churn  float64 // per-request connection death probability, in (0, 1]
	Cohort int     // connections per aggregated cohort (1 = exact per-flow model)
}

// The serving fleet's traffic shape. Its connections spread over the
// host's Cores from core 0.
const (
	serveRatePerConn = 25000.0         // mean requests/s per connection
	serveReqMax      = 64 << 10        // bounded-Pareto request payload cap
	serveRespMax     = 4 << 10         // bounded-Pareto response payload cap
	serveConnPages   = 8               // per-connection buffer pages mapped at birth
	serveAppCPU      = sim.Microsecond // per-request application CPU
)

// servingGCTimeout is how long an unanswered request may sit before the
// open loop abandons it (its segments were tail-dropped at the NIC; the
// generator never retries).
const servingGCTimeout = 5 * sim.Millisecond

// Sides of an exchange, indexing req.got.
const (
	reqSide  = iota // the request, reassembled by the server
	respSide        // the response, reassembled by the client
)

// req is one exchange. Every segment of it, in either direction, carries
// it as its payload. A record goes back to its app's pool at completion
// unless it was resent, because copies of a resent request may still be
// in flight; an abandoned record is left to the garbage collector for
// the same reason.
type req struct {
	a    *app
	gen  int64 // incarnation: bumped each time the pool hands the record out
	conn int   // stream (closed loop) or fleet connection

	start, lastTx       sim.Time // first send (the latency reference) and last send
	reqBytes, respBytes int
	reqSegs, respSegs   int
	payload             int64          // bytes a completion adds to the app's tally
	arr                 cohort.Arrival // the open loop's arrival

	got                             [2]segSet
	answered, done, expired, resent bool

	// The exchange's wire endpoints: its segments from the abstract
	// remote land at the local NIC, and those to it at the remote.
	local  nicEnd
	remote remoteEnd
}

// nicEnd and remoteEnd are an exchange's endpoints on the primary NIC's
// wire pair, bound in its record, so a segment on the wire allocates
// nothing.
type nicEnd struct{ r *req }
type remoteEnd struct{ r *req }

// Deliver hands a segment from the abstract remote to the local NIC,
// which may tail-drop it.
func (e *nicEnd) Deliver(p fabric.Packet) {
	r := e.r
	r.a.h.net.dev.Arrive(nic.Packet{CPU: r.a.cpu(r.conn), Bytes: p.Bytes, ECN: p.ECN, Seq: p.Seq, Payload: r})
}

// Deliver lands a segment at the abstract remote: its server answers a
// reassembled request at once, and its client completes the exchange at
// the last response segment.
func (e *remoteEnd) Deliver(p fabric.Packet) {
	r := e.r
	a, idx := r.a, int(p.Seq)
	if !a.inbound {
		if r.got[reqSide].add(idx, r.reqSegs) {
			a.answer(r)
		}
		return
	}
	if !r.done && r.got[respSide].add(idx, r.respSegs) {
		a.complete(r)
	}
}

// segSet is the set of segment indexes one side of an exchange holds.
type segSet struct {
	words []uint64
	n     int
}

// add records segment i of an n-segment message and reports whether it
// completed the message. A completed set empties itself, so a later copy
// of the message reassembles from scratch.
func (s *segSet) add(i, n int) bool {
	w, bit := i/64, uint64(1)<<(i%64)
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	if s.n++; s.n < n {
		return false
	}
	s.reset()
	return true
}

// reset empties the set, keeping its storage.
func (s *segSet) reset() { s.words, s.n = s.words[:0], 0 }

// liveRef names one incarnation of a record on a live list; it is stale
// once that exchange is done or the record was handed out again.
type liveRef struct {
	r   *req
	gen int64
}

func (l liveRef) stale() bool { return l.r.done || l.r.gen != l.gen }

// tally is an app's cumulative counters, diffed across the measured
// window.
type tally struct {
	completed int64
	bytes     int64 // completion payload
	retries   int64 // closed-loop resends
	expired   int64 // open-loop requests abandoned after drops
	deaths    int64 // open-loop connection deaths, read from the fleet
}

// app is the request/response app: one per arrival source on a host.
type app struct {
	h *Host

	// Policy, fixed at install.
	inbound        bool // requests travel into the local host
	appCPU         sim.Duration
	coreBase, cpus int

	depth, reqBytes, respBytes int          // closed loop
	timeout                    sim.Duration // closed loop: resend after

	fleet     *cohort.Fleet     // open loop (nil for the closed loop)
	connPages int               // open loop: per-connection buffer pages
	connMaps  []*core.TxMapping // open loop: per-connection buffer, remapped at rebirth
	timerSet  bool
	timerAt   sim.Time
	timer     sim.EventID
	onTimerFn func() // onTimer, bound once

	// live holds each stream's requests (closed loop), or the fleet's in
	// arrival order (one list), in creation order; housekeeping drops
	// stale entries.
	live []sim.FIFO[liveRef]

	reqs      pool[req]
	works     pool[segWork]
	connWorks pool[connWork]

	latency stats.Histogram
	n       tally
}

// InstallMessages attaches the closed-loop request/response workload,
// rejecting out-of-range values first. Call it once, before Start: a
// late or second call is an error and leaves any installed app in place.
func (h *Host) InstallMessages(cfg MsgConfig) (*app, error) {
	switch {
	case h.started:
		return nil, fmt.Errorf("host: InstallMessages after Start")
	case h.msgs != nil:
		return nil, fmt.Errorf("host: InstallMessages called twice; a host runs one message app")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(h)
	a := &app{h: h, inbound: cfg.Pattern == LocalServes, appCPU: cfg.AppCPU,
		coreBase: cfg.CoreBase, cpus: cfg.Cores, depth: cfg.Depth,
		reqBytes: cfg.ReqBytes, respBytes: cfg.RespBytes, timeout: cfg.Timeout,
		live: make([]sim.FIFO[liveRef], cfg.Streams)}
	h.msgs = a
	a.bind("rpc.")
	return a, nil
}

// installServing attaches the serving-fleet workload: New's step for
// Config.Serve.
func (h *Host) installServing(cfg ServeConfig) (*app, error) {
	rate := serveRatePerConn // the gap divides in float64 at run time
	fleet, err := cohort.New(cohort.Config{
		Conns:   cfg.Conns,
		Cohort:  cfg.Cohort,
		Churn:   cfg.Churn,
		MeanGap: sim.Duration(1e9 / rate),
		ReqMax:  serveReqMax,
		RespMax: serveRespMax,
		Seed:    h.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("host: serving: %w", err)
	}
	a := &app{h: h, inbound: true, appCPU: serveAppCPU, cpus: h.cfg.Cores,
		fleet: fleet, connPages: serveConnPages, connMaps: make([]*core.TxMapping, cfg.Conns),
		live: make([]sim.FIFO[liveRef], 1)}
	a.onTimerFn = a.onTimer
	h.serve = a
	a.bind("serve.")
	return a, nil
}

// bind registers the app's instruments under prefix. The app owns the
// latency histogram; the registry shares the same object, so telemetry
// readers see identical quantiles.
func (a *app) bind(prefix string) {
	t := a.h.tele
	if t == nil {
		return
	}
	t.reg.AddHistogram(t.name(prefix+"latency_ns"), &a.latency)
	t.reg.GaugeFunc(t.name(prefix+"completed"), func() float64 { return float64(a.n.completed) })
	if a.fleet == nil {
		t.reg.GaugeFunc(t.name(prefix+"retries"), func() float64 { return float64(a.n.retries) })
		return
	}
	t.reg.GaugeFunc(t.name(prefix+"deaths"), func() float64 { return float64(a.fleet.Deaths()) })
	t.reg.GaugeFunc(t.name(prefix+"expired"), func() float64 { return float64(a.n.expired) })
}

// tally returns the app's counters; zero for an app not installed.
func (a *app) tally() tally {
	if a == nil {
		return tally{}
	}
	t := a.n
	if a.fleet != nil {
		t.deaths = a.fleet.Deaths()
	}
	return t
}

func (a *app) cpu(conn int) int { return a.coreBase + conn%a.cpus }

// start opens Depth requests on every stream, a microsecond apart
// stream by stream (closed loop), or maps every connection's buffer in
// connection order and arms the arrival timer (open loop).
func (a *app) start() {
	if a == nil {
		return
	}
	if a.fleet == nil {
		for s := range a.live {
			s := s
			a.h.eng.At(sim.Time(s)*sim.Microsecond, func() {
				for d := 0; d < a.depth; d++ {
					a.initiate(s)
				}
			})
		}
		return
	}
	for c := range a.connMaps {
		a.mapConn(c)
	}
	a.armTimer()
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

// open takes a record from the pool for a new exchange on conn, keeping
// its sets' storage, and puts it on live list l.
func (a *app) open(l, conn, reqBytes, respBytes int) *req {
	r := a.reqs.get()
	now, mtu := a.h.eng.Now(), a.h.cfg.MTU
	*r = req{a: a, gen: r.gen + 1, conn: conn, start: now, lastTx: now,
		reqBytes: reqBytes, respBytes: respBytes,
		reqSegs: segCount(reqBytes, mtu), respSegs: segCount(respBytes, mtu),
		got:   [2]segSet{{words: r.got[reqSide].words[:0]}, {words: r.got[respSide].words[:0]}},
		local: nicEnd{r}, remote: remoteEnd{r}}
	a.live[l].Push(liveRef{r, r.gen})
	return r
}

// initiate opens the next closed-loop request on stream s and sends it.
// A completion counts the bulk side's payload.
func (a *app) initiate(s int) {
	r := a.open(s, s, a.reqBytes, a.respBytes)
	r.payload = int64(a.respBytes)
	if a.inbound {
		r.payload = int64(a.reqBytes)
	}
	a.send(r, r.reqBytes, r.reqSegs, a.inbound)
}

// send puts n segments of bytes in all on the wire: inbound from the
// abstract remote to the local NIC, or outbound through a Tx mapping on
// the connection's core.
func (a *app) send(r *req, bytes, n int, inbound bool) {
	mtu := a.h.cfg.MTU
	for i := 0; i < n; i++ {
		b := segBytes(bytes, mtu, i)
		if inbound {
			a.h.net.toLocal.SendPacket(fabric.Packet{Bytes: b, Seq: int64(i), To: &r.local})
		} else {
			a.h.net.sendTx(nic.Packet{CPU: a.cpu(r.conn), Bytes: b, Seq: int64(i), Payload: r}, ackTxCPU)
		}
	}
}

// answer sends r's response, the opposite way to its request.
func (a *app) answer(r *req) {
	r.answered = true
	a.send(r, r.respBytes, r.respSegs, !a.inbound)
}

// onDeliver handles segment idx of r DMA'd into local memory: its stack
// and application work runs on the connection's core. Only the fleet's
// requests pay the interrupt a delivery to an idle core costs.
func (a *app) onDeliver(r *req, idx int) {
	w := a.works.get()
	if w.workFn == nil {
		w.workFn = w.work
	}
	cpu := a.cpu(r.conn)
	w.r, w.idx, w.irq = r, idx, 0
	if a.fleet != nil {
		w.irq = a.h.irqCost(cpu)
	}
	a.h.core(cpu).Do(w.workFn, nil)
}

// segWork is the stack and application work for one delivered segment.
// Pooled by the app.
type segWork struct {
	r      *req
	idx    int
	irq    sim.Duration
	workFn func() sim.Duration
}

func (w *segWork) work() sim.Duration {
	r, idx := w.r, w.idx
	a := r.a
	cost := w.irq + a.h.net.stackCost()
	w.r = nil
	a.works.put(w)
	if !a.inbound { // a response segment at the local client
		if !r.done && r.got[respSide].add(idx, r.respSegs) {
			cost += a.appCPU
			a.complete(r)
		}
		return cost
	}
	// A request segment at the local server, which never asks whether
	// the client has finished: a late copy is reassembled and answered
	// again.
	switch {
	case r.expired:
	case r.answered: // a copy of an answered request: answer its tail again
		if idx == r.reqSegs-1 {
			a.answer(r)
		}
	case r.got[reqSide].add(idx, r.reqSegs):
		cost += a.appCPU
		a.answer(r)
	}
	return cost
}

// complete finishes r: it records the latency, then starts the stream's
// next request (closed loop) or remaps a connection that churn killed
// (open loop).
func (a *app) complete(r *req) {
	now := a.h.eng.Now()
	lat, reborn := int64(now-r.start), false
	if a.fleet != nil {
		lat, reborn = a.fleet.Complete(r.arr, now, lat)
	}
	a.latency.Observe(lat)
	a.n.completed++
	a.n.bytes += r.payload
	r.done = true
	r.answered = false // a late copy of the request is answered again
	if !r.resent {
		a.reqs.put(r)
	}
	if a.fleet == nil {
		a.initiate(r.conn)
		return
	}
	if reborn {
		a.mapConn(r.arr.Conn)
	}
	a.armTimer()
}

// housekeeping applies the timeout policy: the closed loop resends every
// request last sent at least Timeout ago, stream by stream in creation
// order; the open loop abandons requests from the front of its
// arrival-ordered list, up to the first one still inside
// servingGCTimeout or already answered.
func (a *app) housekeeping(now sim.Time) {
	if a == nil {
		return
	}
	if a.fleet == nil {
		for s := range a.live {
			l := &a.live[s]
			for k := l.Len(); k > 0; k-- {
				e := l.Pop()
				if e.stale() {
					continue
				}
				if r := e.r; now-r.lastTx >= a.timeout {
					r.lastTx, r.resent = now, true
					a.n.retries++
					// Clear reassembly, so the resend starts clean; a copy
					// of an earlier send still counts towards it.
					r.got[reqSide].reset()
					r.got[respSide].reset()
					r.answered = false
					a.send(r, r.reqBytes, r.reqSegs, a.inbound)
				}
				l.Push(e)
			}
		}
		return
	}
	l, changed := &a.live[0], false
	for l.Len() > 0 {
		if e := *l.Front(); !e.stale() {
			r := e.r
			if now-r.start < servingGCTimeout || r.answered {
				break
			}
			r.done, r.expired = true, true
			a.n.expired++
			if a.fleet.Abandon(r.arr, now) {
				a.mapConn(r.arr.Conn)
			}
			changed = true
		}
		l.Pop()
	}
	if changed {
		a.armTimer()
	}
}

// mapConn maps connection c's buffer on its core, paying the mode's
// costs there: at a rebirth it first unmaps the dead incarnation's
// buffer — the churn cost the serving figure is built to expose.
func (a *app) mapConn(c int) {
	w := a.connWorks.get()
	if w.workFn == nil {
		w.workFn = w.work
	}
	w.a, w.c = a, c
	a.h.core(a.cpu(c)).Do(w.workFn, nil)
}

// connWork is mapConn's core work. Pooled by the app.
type connWork struct {
	a      *app
	c      int
	workFn func() sim.Duration
}

func (w *connWork) work() sim.Duration {
	a, c := w.a, w.c
	w.a = nil
	a.connWorks.put(w)
	var cost sim.Duration
	if m := a.connMaps[c]; m != nil {
		uc, err := a.h.net.dom.UnmapTx(m)
		if err != nil {
			panic(fmt.Sprintf("host: UnmapTx(conn): %v", err))
		}
		cost += uc
	}
	tm, mc, err := a.h.net.dom.MapTx(a.cpu(c), a.connPages)
	if err != nil {
		panic(fmt.Sprintf("host: MapTx(conn): %v", err))
	}
	a.connMaps[c] = tm
	return cost + mc
}

// armTimer keeps exactly one engine timer pending, at the fleet's
// earliest arrival.
func (a *app) armTimer() {
	at, ok := a.fleet.Peek()
	if !ok {
		if a.timerSet {
			a.h.eng.Cancel(a.timer)
			a.timerSet = false
		}
		return
	}
	if a.timerSet && a.timerAt == at {
		return
	}
	if a.timerSet {
		a.h.eng.Cancel(a.timer)
	}
	a.timerSet = true
	a.timerAt = at
	a.timer = a.h.eng.At(at, a.onTimerFn)
}

// onTimer sends every fleet arrival due now, from the abstract client,
// and re-arms for the next.
func (a *app) onTimer() {
	a.timerSet = false
	now := a.h.eng.Now()
	for {
		arr, ok := a.fleet.Next(now)
		if !ok {
			break
		}
		r := a.open(0, arr.Conn, arr.Req, arr.Resp)
		r.arr, r.payload = arr, int64(arr.Req+arr.Resp)
		a.send(r, r.reqBytes, r.reqSegs, true)
	}
	a.armTimer()
}
