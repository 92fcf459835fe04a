package stats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Gauge is an instantaneous value: queue depths, utilisations, window
// sizes. Like Counter it is engine-confined and deliberately not atomic —
// every Gauge belongs to one simulation's single-threaded event loop.
//
// A Gauge is function-backed: its value is computed on every read from a
// probe closure installed via Registry.GaugeFunc. That is how the
// simulator layers expose their existing typed counters without copying
// them: the closure reads live state, so the registry always reports the
// current value.
type Gauge struct {
	fn func() float64
}

// Value returns the gauge's current value, invoking its probe closure.
func (g *Gauge) Value() float64 { return g.fn() }

// Registry is a named collection of instruments — the telemetry spine every
// simulator layer reports through. Three instrument kinds are supported:
//
//   - Counter: monotonically increasing event counts
//   - Gauge: instantaneous values, computed by a probe function
//   - Histogram: log-bucketed sample distributions with quantile readout
//
// A name identifies exactly one instrument of one kind; reusing a name for
// a different kind panics, surfacing wiring bugs at construction time.
// All dump orders are sorted by name, so registry output is deterministic
// regardless of registration order.
//
// Like every type in this package the Registry is engine-confined: one
// registry per simulation, touched only from that simulation's event loop.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// kindOf reports the kind holding name, or "" when the name is free.
func (r *Registry) kindOf(name string) string {
	switch {
	case r.counters[name] != nil:
		return "counter"
	case r.gauges[name] != nil:
		return "gauge"
	case r.hists[name] != nil:
		return "histogram"
	}
	return ""
}

func (r *Registry) mustBe(name, kind string) {
	if k := r.kindOf(name); k != "" && k != kind {
		panic(fmt.Sprintf("stats: instrument %q already registered as a %s", name, k))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mustBe(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a gauge whose value is computed by fn on every
// read. Re-registering an existing name replaces its probe, which lets a
// layer rebind after reconfiguration. The rebind mutates the existing
// Gauge in place rather than replacing the object, so holders of the
// prior *Gauge — an Adopt-merged registry — see the new probe instead of
// a detached one.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mustBe(name, "gauge")
	if g, ok := r.gauges[name]; ok {
		g.fn = fn
		return
	}
	r.gauges[name] = &Gauge{fn: fn}
}

// AddHistogram registers an existing histogram under name, so a layer that
// already owns its sample sink (e.g. an RPC latency histogram) can expose
// the same object through the registry without double-observing.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	r.mustBe(name, "histogram")
	r.hists[name] = h
}

// Adopt merges every instrument of src into r by reference: the merged
// registry reads the same live Counter/Gauge/Histogram objects the source
// layers mutate, so it always reports current values without copying.
// A name already present in r panics — shard registries keep disjoint
// namespaces (hostN.*, fabric.portN.*, fabric.core.*), and a collision
// means the shard wiring double-registered an instrument.
//
// The merged view inherits the engine-confinement rules of every adopted
// source: read it only at synchronization barriers (or after the run),
// never while shard event loops are executing in parallel.
func (r *Registry) Adopt(src *Registry) {
	for n, c := range src.counters {
		if r.kindOf(n) != "" {
			panic(fmt.Sprintf("stats: Adopt collision on %q", n))
		}
		r.counters[n] = c
	}
	for n, g := range src.gauges {
		if r.kindOf(n) != "" {
			panic(fmt.Sprintf("stats: Adopt collision on %q", n))
		}
		r.gauges[n] = g
	}
	for n, h := range src.hists {
		if r.kindOf(n) != "" {
			panic(fmt.Sprintf("stats: Adopt collision on %q", n))
		}
		r.hists[n] = h
	}
}

// LookupHistogram returns the named histogram, or nil when absent.
func (r *Registry) LookupHistogram(name string) *Histogram {
	return r.hists[name]
}

// Value returns the named counter or gauge value as a float64. The second
// result is false when the name is unregistered or names a histogram.
func (r *Registry) Value(name string) (float64, bool) {
	if c, ok := r.counters[name]; ok {
		return float64(c.Value()), true
	}
	if g, ok := r.gauges[name]; ok {
		return g.Value(), true
	}
	return 0, false
}

// Names returns every registered instrument name across all three kinds,
// sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders every instrument, one per line, in sorted name order —
// the deterministic dump format the registry tests lock down.
func (r *Registry) String() string {
	var b strings.Builder
	for i, n := range r.Names() {
		if i > 0 {
			b.WriteByte('\n')
		}
		switch {
		case r.counters[n] != nil:
			fmt.Fprintf(&b, "%s=%d", n, r.counters[n].Value())
		case r.gauges[n] != nil:
			b.WriteString(n)
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(r.gauges[n].Value(), 'g', -1, 64))
		default:
			fmt.Fprintf(&b, "%s={%s}", n, r.hists[n])
		}
	}
	return b.String()
}
