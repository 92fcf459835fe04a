// Package fault is the adversarial half of the simulator: a deterministic,
// seed-replayable fault plan injected at named sites across the stack
// (invalidation queue, descriptor engine, devices, PCIe links, the memory
// bus, the IOVA allocator) plus a safety auditor that cross-checks every
// completed translation against the live IO page table.
//
// Determinism contract: all fault decisions draw from one private
// rand.Rand seeded from the plan seed, and all periodic disturbances are
// scheduled on the sim engine's virtual clock — no wall-clock, no global
// rand. The same (plan, seed, workload) triple therefore replays to a
// byte-identical SafetyReport. The zero Plan constructs no injector,
// consumes no randomness and schedules no events, so a disabled fault
// layer is provably inert.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"fastsafe/internal/sim"
)

// Plan describes what to inject and how hard. All probabilities are per
// opportunity (per invalidation request, per DMA, per descriptor fetch,
// per IOVA allocation); all periods are virtual-time intervals with 0
// meaning "never". The zero value disables the layer entirely.
type Plan struct {
	// Invalidation-queue faults, applied where internal/core submits
	// invalidation requests. In the safe modes a lost completion stalls
	// the driver until its timeout fires and the request is resubmitted
	// (a benign retry); only the defer-noshootdown strawman ever skips
	// the shootdown itself.
	InvDrop    float64      // P(completion lost; driver resubmits after InvTimeout)
	InvDelay   float64      // P(completion delayed by InvDelayBy)
	InvDelayBy sim.Duration // stall per delayed completion (default 2us)
	InvTimeout sim.Duration // driver wait before resubmitting a lost request (default 10us)

	// Descriptor-writeback faults (internal/nic): the NIC's completion
	// writeback lands late, delaying descriptor recycling.
	WritebackDelay   float64      // P(a recycle writeback is delayed)
	WritebackDelayBy sim.Duration // delay per late writeback (default 2us)

	// Device misbehaviour, exercised through the fault.Device hooks on
	// every DMA issued by a NIC or storage device.
	StrayDMA    float64 // P(device replays a previously used — likely freed — IOVA)
	WildDMA     float64 // P(device touches a never-mapped, unaligned IOVA)
	DupDescRead float64 // P(an extra out-of-window duplicate descriptor fetch)

	// IOVA allocator pressure (internal/iova through internal/core).
	AllocFail        float64      // P(transient allocation failure + driver retry)
	RcacheFlushEvery sim.Duration // forced full rcache flush period

	// Transient PCIe link flaps: every flap stalls all attached links.
	LinkFlapEvery sim.Duration
	LinkFlapFor   sim.Duration // stall length per flap (default 3us)

	// Memory-bus latency spikes: an antagonist burst of MemSpikeGBps
	// is pushed through every attached bus for MemSpikeFor.
	MemSpikeEvery sim.Duration
	MemSpikeFor   sim.Duration // spike length (default 20us)
	MemSpikeGBps  float64      // antagonist bandwidth during a spike (default 24)

	// Activity window: injections only fire in virtual-time
	// [Start, Start+For), so a campaign can model a bounded burst of
	// misbehaviour mid-run (the adaptive figure's fault phase). Zero
	// Start begins at construction; zero For never ends — both zero is
	// byte-identical to the pre-window injector. The window gates
	// injection decisions, not their aftermath: a delay or stall granted
	// inside the window still plays out past its end.
	Start sim.Duration
	For   sim.Duration
}

// Enabled reports whether the plan injects anything at all. The auditor
// may still run on a disabled plan (host.Config.Audit).
func (p Plan) Enabled() bool { return p != Plan{} }

// withDefaults fills the magnitude knobs that only matter once the
// corresponding probability or period is nonzero.
func (p Plan) withDefaults() Plan {
	if p.InvDelayBy == 0 {
		p.InvDelayBy = 2 * sim.Microsecond
	}
	if p.InvTimeout == 0 {
		p.InvTimeout = 10 * sim.Microsecond
	}
	if p.WritebackDelayBy == 0 {
		p.WritebackDelayBy = 2 * sim.Microsecond
	}
	if p.LinkFlapFor == 0 {
		p.LinkFlapFor = 3 * sim.Microsecond
	}
	if p.MemSpikeFor == 0 {
		p.MemSpikeFor = 20 * sim.Microsecond
	}
	if p.MemSpikeGBps == 0 {
		p.MemSpikeGBps = 24
	}
	return p
}

// Campaign is the canonical intensity-scaled plan used by the faults
// experiment figure and CI campaigns. intensity 0 is the zero plan;
// 1 is the full gauntlet: every fault class active at rates chosen so a
// correct design keeps ≥95% of its fault-free goodput while an unsafe
// one cannot hide (thousands of adversarial events per simulated ms).
func Campaign(intensity float64) Plan {
	if intensity <= 0 {
		return Plan{}
	}
	x := intensity
	period := func(base sim.Duration) sim.Duration {
		return sim.Duration(float64(base) / x)
	}
	return Plan{
		InvDrop:          0.02 * x,
		InvDelay:         0.05 * x,
		WritebackDelay:   0.02 * x,
		StrayDMA:         0.02 * x,
		WildDMA:          0.01 * x,
		DupDescRead:      0.05 * x,
		AllocFail:        0.01 * x,
		RcacheFlushEvery: period(4 * sim.Millisecond),
		LinkFlapEvery:    period(3 * sim.Millisecond),
		MemSpikeEvery:    period(2 * sim.Millisecond),
	}
}

// Parse turns a command-line fault spec into a Plan. A bare number is a
// campaign intensity ("0.5" ⇒ Campaign(0.5)); otherwise the spec is a
// comma-separated key=value list, e.g.
//
//	"invdrop=0.1,straydma=0.05,linkflap=500us,memspike=1ms"
//	"campaign=0.6,start=4ms,for=3ms"
//
// Probabilities are floats in [0,1]; periods/durations use Go duration
// syntax ("300us", "2ms"). "campaign=x" overlays the canonical
// intensity-x plan so later keys can window or tweak it; "start"/"for"
// bound the activity window ([start, start+for), zero for = forever).
func Parse(spec string) (Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Plan{}, nil
	}
	if x, err := strconv.ParseFloat(spec, 64); err == nil {
		if x < 0 {
			return Plan{}, fmt.Errorf("fault intensity %q is negative", spec)
		}
		return Campaign(x), nil
	}
	var p Plan
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault spec field %q: want key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		prob := func(dst *float64) error {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil || x < 0 || x > 1 {
				return fmt.Errorf("fault spec %s=%q: want probability in [0,1]", key, val)
			}
			*dst = x
			return nil
		}
		dur := func(dst *sim.Duration) error {
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("fault spec %s=%q: want duration like 300us", key, val)
			}
			*dst = sim.Duration(d.Nanoseconds())
			return nil
		}
		var err error
		switch key {
		case "campaign":
			x, perr := strconv.ParseFloat(val, 64)
			if perr != nil || x < 0 {
				err = fmt.Errorf("fault spec %s=%q: want intensity >= 0", key, val)
			} else {
				start, dur := p.Start, p.For
				p = Campaign(x)
				p.Start, p.For = start, dur
			}
		case "start":
			err = dur(&p.Start)
		case "for":
			err = dur(&p.For)
		case "invdrop":
			err = prob(&p.InvDrop)
		case "invdelay":
			err = prob(&p.InvDelay)
		case "invdelayby":
			err = dur(&p.InvDelayBy)
		case "invtimeout":
			err = dur(&p.InvTimeout)
		case "writeback":
			err = prob(&p.WritebackDelay)
		case "writebackby":
			err = dur(&p.WritebackDelayBy)
		case "straydma":
			err = prob(&p.StrayDMA)
		case "wilddma":
			err = prob(&p.WildDMA)
		case "dupdesc":
			err = prob(&p.DupDescRead)
		case "allocfail":
			err = prob(&p.AllocFail)
		case "rcacheflush":
			err = dur(&p.RcacheFlushEvery)
		case "linkflap":
			err = dur(&p.LinkFlapEvery)
		case "linkflapfor":
			err = dur(&p.LinkFlapFor)
		case "memspike":
			err = dur(&p.MemSpikeEvery)
		case "memspikefor":
			err = dur(&p.MemSpikeFor)
		case "memspikegbps":
			x, perr := strconv.ParseFloat(val, 64)
			if perr != nil || x <= 0 {
				err = fmt.Errorf("fault spec %s=%q: want GB/s > 0", key, val)
			} else {
				p.MemSpikeGBps = x
			}
		default:
			err = fmt.Errorf("fault spec: unknown key %q", key)
		}
		if err != nil {
			return Plan{}, err
		}
	}
	return p, nil
}
