package fault

import (
	"math/rand"

	"fastsafe/internal/mem"
	"fastsafe/internal/pcie"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// Counters tallies every injected fault by class. They count injections,
// not their consequences — the consequences are the auditor's job.
type Counters struct {
	InvDrops        int64 // invalidation completions lost (resubmitted by safe modes)
	InvDelays       int64 // invalidation completions delayed
	WritebackDelays int64 // NIC descriptor writebacks delayed
	StrayDMAs       int64 // device replays of previously used IOVAs
	WildDMAs        int64 // device accesses to never-mapped, unaligned IOVAs
	DupDescReads    int64 // duplicate out-of-window descriptor fetches
	AllocFails      int64 // transient IOVA allocation failures
	RcacheFlushes   int64 // forced full rcache flushes
	LinkFlaps       int64 // transient PCIe link stalls
	MemSpikes       int64 // memory-bus antagonist bursts
	Retries         int64 // benign driver retries the injections provoked
}

// Total sums every injection class (retries excluded: they are a
// consequence, not an injection).
func (c Counters) Total() int64 {
	return c.InvDrops + c.InvDelays + c.WritebackDelays + c.StrayDMAs +
		c.WildDMAs + c.DupDescReads + c.AllocFails + c.RcacheFlushes +
		c.LinkFlaps + c.MemSpikes
}

// Injector executes a Plan against one host. Every decision method is
// nil-safe and answers "no fault" on a nil receiver, so call sites stay
// unconditional; a zero plan simply never constructs an Injector.
type Injector struct {
	eng      *sim.Engine
	plan     Plan
	rng      *rand.Rand
	aud      *Auditor
	c        Counters
	links    []*pcie.Link
	buses    []*mem.Bus
	flushers []func() int
	started  bool
}

// NewInjector builds an injector for plan, or nil when the plan is
// disabled. The RNG is private to the injector: fault decisions must not
// perturb the workload's or allocator's random streams.
func NewInjector(eng *sim.Engine, plan Plan, seed int64) *Injector {
	if !plan.Enabled() {
		return nil
	}
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		eng:  eng,
		plan: plan.withDefaults(),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Plan returns the effective (default-filled) plan; zero on nil.
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Counters returns the injection tallies so far; zero on nil.
func (i *Injector) Counters() Counters {
	if i == nil {
		return Counters{}
	}
	return i.c
}

// SetAuditor counts every benign retry in the auditor's safety report
// too.
func (i *Injector) SetAuditor(a *Auditor) {
	if i != nil {
		i.aud = a
	}
}

// AttachLink registers a PCIe link as a flap target.
func (i *Injector) AttachLink(l *pcie.Link) {
	if i != nil && l != nil {
		i.links = append(i.links, l)
	}
}

// AttachBus registers a memory bus as a spike target.
func (i *Injector) AttachBus(b *mem.Bus) {
	if i != nil && b != nil {
		i.buses = append(i.buses, b)
	}
}

// AttachFlusher registers an rcache flush callback (one per domain).
func (i *Injector) AttachFlusher(fn func() int) {
	if i != nil && fn != nil {
		i.flushers = append(i.flushers, fn)
	}
}

// Start schedules the plan's periodic disturbances. Idempotent; a nil
// injector starts nothing.
func (i *Injector) Start() {
	if i == nil || i.started {
		return
	}
	i.started = true
	// Periodic disturbances honour the plan's activity window: the
	// first tick lands one period after the window opens, and a tick
	// firing past the window's end neither acts nor reschedules. With
	// the zero window (Start and For both 0) the schedule is exactly
	// the pre-window one.
	if p := i.plan.LinkFlapEvery; p > 0 {
		i.eng.After(i.plan.Start+p, i.flapTick)
	}
	if p := i.plan.MemSpikeEvery; p > 0 {
		i.eng.After(i.plan.Start+p, i.spikeTick)
	}
	if p := i.plan.RcacheFlushEvery; p > 0 {
		i.eng.After(i.plan.Start+p, i.rcacheTick)
	}
}

// active reports whether the virtual clock sits inside the plan's
// injection window [Start, Start+For).
func (i *Injector) active() bool {
	now := i.eng.Now()
	if now < sim.Time(i.plan.Start) {
		return false
	}
	return i.plan.For == 0 || now < sim.Time(i.plan.Start+i.plan.For)
}

func (i *Injector) flapTick() {
	if !i.active() {
		return
	}
	i.c.LinkFlaps++
	until := i.eng.Now() + i.plan.LinkFlapFor
	for _, l := range i.links {
		l.Stall(until)
	}
	i.eng.After(i.plan.LinkFlapEvery, i.flapTick)
}

// spikeTick pushes an antagonist burst through every attached bus:
// MemSpikeGBps worth of 64KB chunk arrivals spread over MemSpikeFor,
// the same shape as the workload-level memory hog.
func (i *Injector) spikeTick() {
	if !i.active() {
		return
	}
	i.c.MemSpikes++
	const chunk = 64 << 10
	bytes := i.plan.MemSpikeGBps * float64(i.plan.MemSpikeFor) // GB/s × ns = bytes
	n := int(bytes / chunk)
	if n < 1 {
		n = 1
	}
	interval := i.plan.MemSpikeFor / sim.Duration(n)
	for k := 0; k < n; k++ {
		i.eng.After(sim.Duration(k)*interval, func() {
			for _, b := range i.buses {
				b.Consume(chunk)
			}
		})
	}
	i.eng.After(i.plan.MemSpikeEvery, i.spikeTick)
}

func (i *Injector) rcacheTick() {
	if !i.active() {
		return
	}
	i.c.RcacheFlushes++
	for _, fn := range i.flushers {
		fn()
	}
	i.eng.After(i.plan.RcacheFlushEvery, i.rcacheTick)
}

// roll is the one probability gate: every per-opportunity fault class
// decides through it, so the activity window uniformly gates them all.
// Outside the window no randomness is consumed — the in-window decision
// stream is therefore identical whether or not quiet phases precede it.
func (i *Injector) roll(p float64) bool {
	return p > 0 && i.active() && i.rng.Float64() < p
}

func (i *Injector) noteRetry() {
	i.c.Retries++
	i.aud.noteRetry()
}

// DropInv reports whether this invalidation completion is lost. The
// caller models the driver's timeout-and-resubmit; the drop itself is a
// benign retry in every mode that waits for completion.
func (i *Injector) DropInv() bool {
	if i == nil || !i.roll(i.plan.InvDrop) {
		return false
	}
	i.c.InvDrops++
	i.noteRetry()
	return true
}

// DelayInv returns the extra latency of a delayed invalidation
// completion (0 = not delayed).
func (i *Injector) DelayInv() sim.Duration {
	if i == nil || !i.roll(i.plan.InvDelay) {
		return 0
	}
	i.c.InvDelays++
	return i.plan.InvDelayBy
}

// DelayWriteback returns the extra latency of a delayed descriptor
// writeback (0 = not delayed).
func (i *Injector) DelayWriteback() sim.Duration {
	if i == nil || !i.roll(i.plan.WritebackDelay) {
		return 0
	}
	i.c.WritebackDelays++
	return i.plan.WritebackDelayBy
}

// FailAlloc reports whether this IOVA allocation transiently fails; the
// caller charges the driver's back-off-and-retry cost.
func (i *Injector) FailAlloc() bool {
	if i == nil || !i.roll(i.plan.AllocFail) {
		return false
	}
	i.c.AllocFails++
	i.noteRetry()
	return true
}

// RegisterProbes exposes the injection counters under prefix
// (e.g. "fault.").
func (i *Injector) RegisterProbes(r *stats.Registry, prefix string) {
	if i == nil {
		return
	}
	probe := func(name string, fn func(Counters) int64) {
		r.GaugeFunc(prefix+name, func() float64 { return float64(fn(i.c)) })
	}
	probe("inv_drops", func(c Counters) int64 { return c.InvDrops })
	probe("inv_delays", func(c Counters) int64 { return c.InvDelays })
	probe("writeback_delays", func(c Counters) int64 { return c.WritebackDelays })
	probe("stray_dmas", func(c Counters) int64 { return c.StrayDMAs })
	probe("wild_dmas", func(c Counters) int64 { return c.WildDMAs })
	probe("dup_desc_reads", func(c Counters) int64 { return c.DupDescReads })
	probe("alloc_fails", func(c Counters) int64 { return c.AllocFails })
	probe("rcache_flushes", func(c Counters) int64 { return c.RcacheFlushes })
	probe("link_flaps", func(c Counters) int64 { return c.LinkFlaps })
	probe("mem_spikes", func(c Counters) int64 { return c.MemSpikes })
	probe("retries", func(c Counters) int64 { return c.Retries })
	probe("total", func(c Counters) int64 { return c.Total() })
}
