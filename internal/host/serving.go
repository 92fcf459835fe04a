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

// serveSeg is one serving segment on the wire.
type serveSeg struct {
	id    int64
	conn  int
	idx   int
	count int
	bytes int
	resp  bool // response vs request segment
}

// servReq tracks one in-flight request at the serving host.
type servReq struct {
	arr      cohort.Arrival
	start    sim.Time
	got      int  // request segments assembled
	respGot  int  // response segments delivered at the client
	answered bool // response sent; completion is inevitable (Tx never drops)
}

type servingApp struct {
	h     *Host
	cfg   ServeConfig
	fleet *cohort.Fleet

	timerSet bool
	timerAt  sim.Time
	timer    sim.EventID

	pending  map[int64]*servReq
	gcq      []int64           // request ids in arrival order (FIFO expiry scan)
	connMaps []*core.TxMapping // per-connection buffer, remapped at rebirth
	latency  stats.Histogram

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
// mapping cost there.
func (a *servingApp) mapConn(c int) {
	cpu := a.cpu(c)
	a.h.core(cpu).Do(func() sim.Duration {
		tm, mc, err := a.h.net.dom.MapTx(cpu, a.cfg.ConnPages)
		if err != nil {
			panic(fmt.Sprintf("host: MapTx(conn): %v", err))
		}
		a.connMaps[c] = tm
		return mc
	}, nil)
}

// recycleConn retires a dead connection's buffer and maps the fresh
// incarnation's — the churn cost the figure is built to expose.
func (a *servingApp) recycleConn(c int) {
	cpu := a.cpu(c)
	a.h.core(cpu).Do(func() sim.Duration {
		var cost sim.Duration
		if m := a.connMaps[c]; m != nil {
			uc, err := a.h.net.dom.UnmapTx(m)
			if err != nil {
				panic(fmt.Sprintf("host: UnmapTx(conn): %v", err))
			}
			cost += uc
		}
		tm, mc, err := a.h.net.dom.MapTx(cpu, a.cfg.ConnPages)
		if err != nil {
			panic(fmt.Sprintf("host: MapTx(conn): %v", err))
		}
		a.connMaps[c] = tm
		return cost + mc
	}, nil)
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
	a.timer = a.h.eng.At(at, a.onTimer)
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
	r := &servReq{arr: arr, start: now}
	a.pending[arr.ID] = r
	a.gcq = append(a.gcq, arr.ID)
	n := segCount(arr.Req, a.h.cfg.MTU)
	cpu := a.cpu(arr.Conn)
	for i := 0; i < n; i++ {
		seg := serveSeg{id: arr.ID, conn: arr.Conn, idx: i, count: n,
			bytes: segBytes(arr.Req, a.h.cfg.MTU, i)}
		a.h.net.arriveFromRemote(cpu, seg.bytes, seg)
	}
}

// onDeliver handles a request segment DMA'd into local memory.
func (a *servingApp) onDeliver(pkt nic.Packet, seg serveSeg) {
	if seg.resp {
		panic("host: response segment delivered to serving host")
	}
	cpu := a.cpu(seg.conn)
	irq := a.h.irqCost(cpu)
	a.h.core(cpu).Do(func() sim.Duration {
		cost := irq + a.h.net.stackCost()
		r, ok := a.pending[seg.id]
		if !ok || r.answered {
			return cost // late segment of an expired or answered request
		}
		r.got++
		if r.got == seg.count {
			cost += a.cfg.AppCPU
			a.respond(r)
		}
		return cost
	}, nil)
}

// respond sends the response: each segment is mapped into a fresh
// short-lived Tx buffer (the per-request map/unmap the paper's Tx-path
// costs model) and handed to the NIC.
func (a *servingApp) respond(r *servReq) {
	r.answered = true
	n := segCount(r.arr.Resp, a.h.cfg.MTU)
	cpu := a.cpu(r.arr.Conn)
	for i := 0; i < n; i++ {
		seg := serveSeg{id: r.arr.ID, conn: r.arr.Conn, idx: i, count: n,
			bytes: segBytes(r.arr.Resp, a.h.cfg.MTU, i), resp: true}
		a.h.net.sendTx(nic.Packet{CPU: cpu, Bytes: seg.bytes, Payload: seg}, a.h.cfg.AckTxCost)
	}
}

// onTxDone routes a sent response segment onto the wire toward the
// abstract client (the Tx buffer was already unmapped by the generic
// netDev completion path).
func (a *servingApp) onTxDone(pkt nic.Packet, seg serveSeg) {
	a.h.net.toRemote.Send(pkt.Bytes, func(bool) {
		a.clientReceive(seg)
	})
}

// clientReceive is the abstract client's side: the last response
// segment completes the request.
func (a *servingApp) clientReceive(seg serveSeg) {
	r, ok := a.pending[seg.id]
	if !ok {
		return
	}
	r.respGot++
	if r.respGot < seg.count {
		return
	}
	delete(a.pending, seg.id)
	now := a.h.eng.Now()
	rec, reborn := a.fleet.Complete(r.arr, now, int64(now-r.start))
	a.latency.Observe(rec)
	a.completed++
	a.completedBytes += int64(r.arr.Req + r.arr.Resp)
	if reborn {
		a.recycleConn(r.arr.Conn)
	}
	a.armTimer()
}

// housekeeping expires unanswered requests whose segments were dropped.
// The gc queue is in arrival order, so the scan stops at the first
// entry still inside the timeout.
func (a *servingApp) housekeeping(now sim.Time) {
	changed := false
	for len(a.gcq) > 0 {
		id := a.gcq[0]
		r, ok := a.pending[id]
		if !ok {
			a.gcq = a.gcq[1:]
			continue
		}
		if now-r.start < servingGCTimeout || r.answered {
			break
		}
		a.gcq = a.gcq[1:]
		delete(a.pending, id)
		a.expired++
		if a.fleet.Abandon(r.arr, now) {
			a.recycleConn(r.arr.Conn)
		}
		changed = true
	}
	if changed {
		a.armTimer()
	}
}
