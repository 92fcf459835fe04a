package host

import (
	"fmt"

	"fastsafe/internal/cohort"
	"fastsafe/internal/core"
	"fastsafe/internal/nic"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The serving-fleet workload (ROADMAP item 3): an open-loop population
// of connections driven by internal/cohort — Poisson arrivals,
// bounded-Pareto request/response sizes, and connection churn. Unlike
// the closed-loop message app (msg.go), nothing here waits for
// completions before sending more: requests arrive at the configured
// rate no matter how far behind the host falls, which is what makes
// protection cost visible as tail latency instead of lost goodput.
//
// Churn is the load-bearing part. Every connection owns a buffer of
// ConnPages mapped at birth and unmapped at death, and every response
// rides a freshly mapped short-lived Tx buffer — so the IOVA
// allocator and (un)map rates scale with churn x request rate, the
// regime that decides whether the rcache magazines absorb the storm or
// fall into the flush-to-tree overflow path.

// ServeConfig configures the serving-fleet workload on a host. Conns,
// Churn and Cohort are the externally exposed knobs (validated through
// cohort.Config); the rest shape the traffic and default to a
// production-ish profile that loads five cores to ~50% before
// protection costs.
type ServeConfig struct {
	Conns  int     // fleet population (constant; dead connections are reborn)
	Churn  float64 // per-request connection death probability, in (0, 1]
	Cohort int     // connections per aggregated cohort (1 = exact per-flow model)

	RatePerConn float64      // mean requests/s per connection (default 25000)
	ReqBytes    int          // bounded-Pareto request payload cap (default 64KB)
	RespBytes   int          // bounded-Pareto response payload cap (default 4KB)
	ConnPages   int          // per-connection buffer pages mapped at birth (default 8)
	AppCPU      sim.Duration // per-request application CPU (default 1us)
	Cores       int          // cores the connections spread over (default host Cores)
	CoreBase    int          // first core index (default 0)
}

func (c ServeConfig) withDefaults(h *Host) ServeConfig {
	if c.RatePerConn <= 0 {
		c.RatePerConn = 25000
	}
	if c.ReqBytes <= 0 {
		c.ReqBytes = 64 << 10
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 4 << 10
	}
	if c.ConnPages <= 0 {
		c.ConnPages = 8
	}
	if c.AppCPU == 0 {
		c.AppCPU = 1 * sim.Microsecond
	}
	if c.Cores <= 0 {
		c.Cores = h.cfg.Cores
	}
	return c
}

// servingGCTimeout is how long an unanswered request may sit before the
// open loop abandons it (its segments were tail-dropped at the NIC; the
// generator never retries).
const servingGCTimeout = 5 * sim.Millisecond

// servReq tracks one in-flight request at the serving host. Its segments
// carry it as their nic.Packet.Payload: request segments on the Rx path,
// response segments on the Tx path. A completed request has no segment
// left anywhere, so it returns to the app's pool; an expired one may
// still have segments queued and is left to the garbage collector.
type servReq struct {
	arr      cohort.Arrival
	start    sim.Time
	reqSegs  int  // request segments
	respSegs int  // response segments
	got      int  // request segments assembled
	respGot  int  // response segments delivered at the client
	answered bool // response sent; completion is inevitable (Tx never drops)
}

type servingApp struct {
	h     *Host
	cfg   ServeConfig
	fleet *cohort.Fleet

	timerSet  bool
	timerAt   sim.Time
	timer     sim.EventID
	onTimerFn func() // onTimer, bound once

	pending  map[int64]*servReq
	gcq      sim.FIFO[int64]   // request ids in arrival order (FIFO expiry scan)
	connMaps []*core.TxMapping // per-connection buffer, remapped at rebirth
	latency  stats.Histogram

	// Response segments on the wire to the abstract client, in send
	// order; landAtClient (bound once as clientFn) pops the one landing.
	toClient sim.FIFO[*servReq]
	clientFn func(ecn bool)

	reqs      pool[servReq]
	reqWorks  pool[servReqWork]
	connWorks pool[connWork]

	completed      int64
	completedBytes int64 // request+response payload of completed requests
	expired        int64 // requests abandoned after drops
}

// InstallServing attaches the serving-fleet workload. Called by New
// when Config.Serve is set; call before Start.
func (h *Host) InstallServing(cfg ServeConfig) (*servingApp, error) {
	cfg = cfg.withDefaults(h)
	gap := sim.Duration(1e9 / cfg.RatePerConn)
	fleet, err := cohort.New(cohort.Config{
		Conns:   cfg.Conns,
		Cohort:  cfg.Cohort,
		Churn:   cfg.Churn,
		MeanGap: gap,
		ReqMax:  cfg.ReqBytes,
		RespMax: cfg.RespBytes,
		Seed:    h.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("host: serving: %w", err)
	}
	app := &servingApp{
		h:        h,
		cfg:      cfg,
		fleet:    fleet,
		pending:  make(map[int64]*servReq),
		connMaps: make([]*core.TxMapping, cfg.Conns),
	}
	app.onTimerFn, app.clientFn = app.onTimer, app.landAtClient
	h.serve = app
	if h.tele != nil {
		h.tele.reg.AddHistogram(h.tele.name("serve.latency_ns"), &app.latency)
		h.tele.reg.GaugeFunc(h.tele.name("serve.completed"), func() float64 { return float64(app.completed) })
		h.tele.reg.GaugeFunc(h.tele.name("serve.deaths"), func() float64 { return float64(fleet.Deaths()) })
		h.tele.reg.GaugeFunc(h.tele.name("serve.expired"), func() float64 { return float64(app.expired) })
	}
	return app, nil
}

// Latency returns the request-latency histogram (ns), measured at the
// abstract client from arrival to last response segment.
func (a *servingApp) Latency() *stats.Histogram { return &a.latency }

// Fleet exposes the generator (tests read its churn accounting).
func (a *servingApp) Fleet() *cohort.Fleet { return a.fleet }

func (a *servingApp) cpu(conn int) int { return a.cfg.CoreBase + conn%a.cfg.Cores }

// start maps every connection's buffer (in connection order) and arms
// the arrival timer.
func (a *servingApp) start() {
	for c := 0; c < a.cfg.Conns; c++ {
		a.mapConn(c)
	}
	a.armTimer()
}

// mapConn maps connection c's buffer on its core, paying the mode's
// costs there: at a rebirth it first unmaps the dead incarnation's
// buffer — the churn cost the figure is built to expose.
func (a *servingApp) mapConn(c int) {
	w := a.connWorks.get()
	if w.workFn == nil {
		w.workFn = w.work
	}
	w.a, w.c = a, c
	a.h.core(a.cpu(c)).Do(w.workFn, nil)
}

// connWork is mapConn's core work. Pooled by the app.
type connWork struct {
	a      *servingApp
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
	tm, mc, err := a.h.net.dom.MapTx(a.cpu(c), a.cfg.ConnPages)
	if err != nil {
		panic(fmt.Sprintf("host: MapTx(conn): %v", err))
	}
	a.connMaps[c] = tm
	return cost + mc
}

// armTimer keeps exactly one engine timer pending, at the fleet's
// earliest arrival.
func (a *servingApp) armTimer() {
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

// onTimer pops every arrival due now and re-arms for the next.
func (a *servingApp) onTimer() {
	a.timerSet = false
	now := a.h.eng.Now()
	for {
		arr, ok := a.fleet.Next(now)
		if !ok {
			break
		}
		a.sendRequest(arr, now)
	}
	a.armTimer()
}

// sendRequest puts one request on the wire from the abstract client:
// segments arrive at the NIC like any remote traffic and may be
// tail-dropped under pressure.
func (a *servingApp) sendRequest(arr cohort.Arrival, now sim.Time) {
	mtu := a.h.cfg.MTU
	r := a.reqs.get()
	*r = servReq{arr: arr, start: now, reqSegs: segCount(arr.Req, mtu), respSegs: segCount(arr.Resp, mtu)}
	a.pending[arr.ID] = r
	a.gcq.Push(arr.ID)
	cpu := a.cpu(arr.Conn)
	for i := 0; i < r.reqSegs; i++ {
		a.h.net.arriveFromRemote(nic.Packet{CPU: cpu, Bytes: segBytes(arr.Req, mtu, i), Payload: r})
	}
}

// onDeliver handles a request segment of r DMA'd into local memory.
func (a *servingApp) onDeliver(r *servReq) {
	w := a.reqWorks.get()
	if w.workFn == nil {
		w.workFn = w.work
	}
	cpu := a.cpu(r.arr.Conn)
	w.a, w.r, w.irq = a, r, a.h.irqCost(cpu)
	a.h.core(cpu).Do(w.workFn, nil)
}

// servReqWork is the stack and application work for one request
// segment. Pooled by the app.
type servReqWork struct {
	a      *servingApp
	r      *servReq
	irq    sim.Duration
	workFn func() sim.Duration
}

func (w *servReqWork) work() sim.Duration {
	a, r := w.a, w.r
	cost := w.irq + a.h.net.stackCost()
	w.a, w.r = nil, nil
	a.reqWorks.put(w)
	if _, ok := a.pending[r.arr.ID]; !ok || r.answered {
		return cost // late segment of an expired or answered request
	}
	r.got++
	if r.got == r.reqSegs {
		cost += a.cfg.AppCPU
		a.respond(r)
	}
	return cost
}

// respond sends the response: each segment is mapped into a fresh
// short-lived Tx buffer (the per-request map/unmap the paper's Tx-path
// costs model) and handed to the NIC.
func (a *servingApp) respond(r *servReq) {
	r.answered = true
	cpu := a.cpu(r.arr.Conn)
	for i := 0; i < r.respSegs; i++ {
		a.h.net.sendTx(nic.Packet{CPU: cpu, Bytes: segBytes(r.arr.Resp, a.h.cfg.MTU, i), Payload: r}, a.h.cfg.AckTxCost)
	}
}

// onTxDone routes a sent response segment of r onto the wire toward the
// abstract client (the Tx buffer was already unmapped by the generic
// netDev completion path).
func (a *servingApp) onTxDone(pkt nic.Packet, r *servReq) {
	a.toClient.Push(r)
	a.h.net.toRemote.Send(pkt.Bytes, a.clientFn)
}

// landAtClient delivers the oldest response segment on the wire.
func (a *servingApp) landAtClient(bool) { a.clientReceive(a.toClient.Pop()) }

// clientReceive is the abstract client's side: the last response
// segment completes the request.
func (a *servingApp) clientReceive(r *servReq) {
	if _, ok := a.pending[r.arr.ID]; !ok {
		return
	}
	r.respGot++
	if r.respGot < r.respSegs {
		return
	}
	delete(a.pending, r.arr.ID)
	now := a.h.eng.Now()
	rec, reborn := a.fleet.Complete(r.arr, now, int64(now-r.start))
	a.latency.Observe(rec)
	a.completed++
	a.completedBytes += int64(r.arr.Req + r.arr.Resp)
	if reborn {
		a.mapConn(r.arr.Conn)
	}
	a.reqs.put(r)
	a.armTimer()
}

// housekeeping expires unanswered requests whose segments were dropped.
// The gc queue is in arrival order, so the scan stops at the first
// entry still inside the timeout.
func (a *servingApp) housekeeping(now sim.Time) {
	changed := false
	for a.gcq.Len() > 0 {
		id := *a.gcq.Front()
		r, ok := a.pending[id]
		if !ok {
			a.gcq.Pop()
			continue
		}
		if now-r.start < servingGCTimeout || r.answered {
			break
		}
		a.gcq.Pop()
		delete(a.pending, id)
		a.expired++
		if a.fleet.Abandon(r.arr, now) {
			a.mapConn(r.arr.Conn)
		}
		changed = true
	}
	if changed {
		a.armTimer()
	}
}
