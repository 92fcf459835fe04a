// Package cohort is the flow-aggregate abstraction behind the
// serving-fleet workload (ROADMAP item 3): an open-loop fleet of
// connections with Poisson arrivals, heavy-tailed (bounded-Pareto)
// request/response sizes, and connection churn — each connection serves
// a geometric number of requests and then dies, so IOVA allocation and
// (un)map pressure scales with the churn rate rather than throughput.
//
// Millions of users will not fit as millions of simulated flows, so the
// fleet groups K identical connections into a cohort sharing one
// modeled state (an EWMA latency model and aggregate completion
// accounting). The grouping is *samplewise invariant* by construction:
// every connection draws from its own counter-based RNG stream keyed by
// (seed, connection, incarnation), with a fixed draw order per arrival,
// and all connections schedule through one global (time, connection)
// min-heap. Changing the cohort size K therefore changes nothing about
// which events happen when — protection costs (IOMMU walks, IOVA
// allocator traffic, map/unmap work) and safety audits are *exactly*
// equal across groupings, and only the per-request latency attribution
// switches from exact measurement (K == 1) to the cohort's shared model
// (K > 1). The equivalence test in internal/host holds the package to
// that contract.
package cohort

import (
	"fmt"
	"math"

	"fastsafe/internal/sim"
)

// Config describes a serving fleet. The zero value is not runnable;
// Validate reports descriptive errors for the knobs front ends expose.
type Config struct {
	Conns int // fleet population; dead connections are reborn, so it is constant
	// Cohort is the number of connections sharing one modeled state.
	// 1 simulates every connection exactly; K > 1 approximates only the
	// recorded latency, never the event stream.
	Cohort int
	// Churn is the per-request probability that a connection dies after
	// the response completes, in (0, 1]: connection lifetimes are
	// geometric with mean 1/Churn requests.
	Churn float64

	MeanGap sim.Duration // mean per-connection inter-arrival time (default 40us)

	ReqMin, ReqMax   int     // bounded-Pareto request payload (default 256..64KB)
	RespMin, RespMax int     // bounded-Pareto response payload (default 64..4KB)
	Alpha            float64 // Pareto tail index for both (default 1.3)

	Seed int64
}

// Validate checks the externally exposed knobs. Each rejection names
// the knob, the value and its meaning, since host.New passes it on to
// fssim and the public facade as is.
func (c Config) Validate() error {
	switch {
	case c.Conns < 1:
		return fmt.Errorf("cohort: conns must be >= 1, got %d", c.Conns)
	case c.Cohort < 1:
		return fmt.Errorf("cohort: cohort size must be >= 1, got %d (1 simulates every connection exactly)", c.Cohort)
	case c.Churn <= 0 || c.Churn > 1:
		return fmt.Errorf("cohort: churn rate must be in (0, 1], got %g (the per-request connection death probability)", c.Churn)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MeanGap <= 0 {
		c.MeanGap = 40 * sim.Microsecond
	}
	if c.ReqMin <= 0 {
		c.ReqMin = 256
	}
	if c.ReqMax <= 0 {
		c.ReqMax = 64 << 10
	}
	if c.RespMin <= 0 {
		c.RespMin = 64
	}
	if c.RespMax <= 0 {
		c.RespMax = 4 << 10
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.3
	}
	return c
}

// rng is a splitmix64 stream. Each (connection, incarnation) gets its
// own stream so draws never depend on the interleaving of other
// connections — the property that makes cohort grouping samplewise
// invariant.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func connRNG(seed int64, conn int, gen int64) rng {
	s := mix64(uint64(seed) + 0x9E3779B97F4A7C15)
	s = mix64(s ^ uint64(conn))
	s = mix64(s ^ uint64(gen)*0xD1342543DE82EF95)
	return rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// expGap draws an exponential inter-arrival gap with the configured
// mean, clamped to >= 1ns so virtual time strictly advances.
func (c Config) expGap(r *rng) sim.Duration {
	d := sim.Duration(-float64(c.MeanGap) * math.Log(1-r.float64()))
	if d < 1 {
		d = 1
	}
	return d
}

// sizes is a bounded-Pareto size distribution on [lo, hi] with tail
// index alpha. ratio, (lo/hi)^alpha, depends only on the config, so New
// computes it once per distribution instead of once per draw.
type sizes struct {
	lo, hi       int
	alpha, ratio float64
}

func (c Config) sizes(lo, hi int) sizes {
	return sizes{lo: lo, hi: hi, alpha: c.Alpha, ratio: math.Pow(float64(lo)/float64(hi), c.Alpha)}
}

// draw draws a size by inverse CDF.
func (s *sizes) draw(r *rng) int {
	if s.lo >= s.hi {
		return s.lo
	}
	u := r.float64()
	x := float64(s.lo) / math.Pow(1-u*(1-s.ratio), 1/s.alpha)
	n := int(x)
	if n < s.lo {
		n = s.lo
	}
	if n > s.hi {
		n = s.hi
	}
	return n
}

// Arrival is one request event popped from the fleet.
type Arrival struct {
	Conn  int   // global connection index
	Group int   // cohort index: Conn / Cohort
	ID    int64 // globally unique request id
	Req   int   // request payload bytes
	Resp  int   // response payload bytes
	// Last marks the connection's final request: after its response
	// completes (or it is abandoned), the connection dies and a fresh
	// incarnation is born in its slot.
	Last bool
}

// Group is the shared modeled state of one cohort of connections.
// Counters are exact aggregates of member events; the EWMA latency is
// the modeled quantity that replaces per-connection measurement at
// cohort sizes above 1.
type Group struct {
	Members     int
	InFlight    int     // member requests currently outstanding
	Completions int64   // member requests completed
	Bytes       int64   // request+response payload of completed requests
	EWMALatNs   float64 // shared latency model (exp. weighted, gain 1/8)
}

// conn is one connection slot's live state.
type conn struct {
	rng    rng
	gen    int64 // incarnation (bumped at each rebirth)
	nextAt sim.Time
	inHeap bool
}

// Fleet is the open-loop generator: a constant population of
// connections whose next arrivals sit in one global (time, connection)
// min-heap, so scheduling order is independent of cohort grouping.
type Fleet struct {
	cfg    Config
	req    sizes
	resp   sizes
	conns  []conn
	groups []Group
	heap   []int // connection indices ordered by (nextAt, index)
	nextID int64
	deaths int64
}

// New builds a fleet; every connection's first arrival is drawn from
// its own incarnation-0 stream.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg, req: cfg.sizes(cfg.ReqMin, cfg.ReqMax), resp: cfg.sizes(cfg.RespMin, cfg.RespMax)}
	f.conns = make([]conn, cfg.Conns)
	nGroups := (cfg.Conns + cfg.Cohort - 1) / cfg.Cohort
	f.groups = make([]Group, nGroups)
	for g := range f.groups {
		members := cfg.Cohort
		if rem := cfg.Conns - g*cfg.Cohort; rem < members {
			members = rem
		}
		f.groups[g].Members = members
	}
	for i := range f.conns {
		f.birth(i, 0)
	}
	return f, nil
}

// birth starts connection slot i's next incarnation at time now.
func (f *Fleet) birth(i int, now sim.Time) {
	c := &f.conns[i]
	c.rng = connRNG(f.cfg.Seed, i, c.gen)
	c.nextAt = now + sim.Time(f.cfg.expGap(&c.rng))
	f.push(i)
}

// Peek returns the earliest pending arrival time (ok=false only if the
// whole fleet is between death and rebirth, which cannot happen: dead
// slots rebirth synchronously on completion or abandonment).
func (f *Fleet) Peek() (sim.Time, bool) {
	if len(f.heap) == 0 {
		return 0, false
	}
	return f.conns[f.heap[0]].nextAt, true
}

// Next pops the earliest arrival if it is due at or before now. The
// draw order per arrival is fixed — request size, response size, death
// — followed by the next gap for surviving connections, so the stream
// each connection produces is independent of everything else.
func (f *Fleet) Next(now sim.Time) (Arrival, bool) {
	if len(f.heap) == 0 || f.conns[f.heap[0]].nextAt > now {
		return Arrival{}, false
	}
	i := f.pop()
	c := &f.conns[i]
	a := Arrival{
		Conn:  i,
		Group: i / f.cfg.Cohort,
		ID:    f.nextID,
		Req:   f.req.draw(&c.rng),
		Resp:  f.resp.draw(&c.rng),
	}
	f.nextID++
	a.Last = c.rng.float64() < f.cfg.Churn
	if !a.Last {
		c.nextAt += sim.Time(f.cfg.expGap(&c.rng))
		f.push(i)
	}
	f.groups[a.Group].InFlight++
	return a, true
}

// Complete finishes a request: the cohort's aggregates absorb the
// member event exactly, and the returned latency is what the caller
// should record — the measured value at cohort size 1, the cohort's
// updated EWMA model otherwise. A Last arrival triggers the
// connection's death and immediate rebirth (reborn=true): the caller
// owns remapping the connection's buffers.
func (f *Fleet) Complete(a Arrival, now sim.Time, measuredNs int64) (recordNs int64, reborn bool) {
	g := &f.groups[a.Group]
	g.InFlight--
	g.Completions++
	g.Bytes += int64(a.Req + a.Resp)
	g.EWMALatNs += (float64(measuredNs) - g.EWMALatNs) / 8
	recordNs = measuredNs
	if f.cfg.Cohort > 1 {
		recordNs = int64(g.EWMALatNs)
	}
	if a.Last {
		f.die(a.Conn, now)
		reborn = true
	}
	return recordNs, reborn
}

// Abandon gives up on a request whose segments were dropped (the open
// loop never retries). No latency is recorded; a Last arrival still
// dies and rebirths so connection slots never leak.
func (f *Fleet) Abandon(a Arrival, now sim.Time) (reborn bool) {
	f.groups[a.Group].InFlight--
	if a.Last {
		f.die(a.Conn, now)
		return true
	}
	return false
}

func (f *Fleet) die(i int, now sim.Time) {
	f.deaths++
	f.conns[i].gen++
	f.birth(i, now)
}

// Deaths returns total connection deaths (the churn event count).
func (f *Fleet) Deaths() int64 { return f.deaths }

// Cohort returns the configured cohort size.
func (f *Fleet) Cohort() int { return f.cfg.Cohort }

// heap operations: a plain binary min-heap over connection indices
// ordered by (nextAt, index) — the index tie-break keeps same-instant
// arrivals in a grouping-independent order.

func (f *Fleet) less(a, b int) bool {
	ca, cb := &f.conns[a], &f.conns[b]
	if ca.nextAt != cb.nextAt {
		return ca.nextAt < cb.nextAt
	}
	return a < b
}

func (f *Fleet) push(i int) {
	if f.conns[i].inHeap {
		panic(fmt.Sprintf("cohort: conn %d pushed twice", i))
	}
	f.conns[i].inHeap = true
	f.heap = append(f.heap, i)
	j := len(f.heap) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !f.less(f.heap[j], f.heap[p]) {
			break
		}
		f.heap[j], f.heap[p] = f.heap[p], f.heap[j]
		j = p
	}
}

func (f *Fleet) pop() int {
	top := f.heap[0]
	f.conns[top].inHeap = false
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap = f.heap[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		min := j
		if l < last && f.less(f.heap[l], f.heap[min]) {
			min = l
		}
		if r < last && f.less(f.heap[r], f.heap[min]) {
			min = r
		}
		if min == j {
			break
		}
		f.heap[j], f.heap[min] = f.heap[min], f.heap[j]
		j = min
	}
	return top
}
