package stats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Registry is a named collection of instruments — the telemetry spine every
// simulator layer reports through. Two instrument kinds are supported:
//
//   - gauges: counts and instantaneous values, each computed on every
//     read by the probe function registered under its name
//   - histograms: log-bucketed sample distributions with quantile readout
//
// A name identifies exactly one instrument; registering a name twice, as
// either kind, panics, surfacing wiring bugs at construction time. All
// dump orders are sorted by name, so registry output is deterministic
// regardless of registration order.
//
// One registry serves a whole simulation, a sharded cluster included.
// Names are registered only while the simulation is built (host.New,
// host.NewCluster, a cluster flow's connect, and InstallMessages before
// Start); a sharded round only reads the maps, and every probe a round
// reads belongs to a host of the shard reading it. Read any other
// instrument between Run windows or after the run.
type Registry struct {
	gauges map[string]func() float64
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]func() float64),
		hists:  make(map[string]*Histogram),
	}
}

func (r *Registry) mustBeFree(name string) {
	if r.gauges[name] != nil || r.hists[name] != nil {
		panic(fmt.Sprintf("stats: instrument %q registered twice", name))
	}
}

// GaugeFunc registers a gauge whose value is computed by fn on every
// read: the probe reads live state, so the registry always reports the
// layer's current value without copying it.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mustBeFree(name)
	r.gauges[name] = fn
}

// AddHistogram registers an existing histogram under name, so a layer that
// already owns its sample sink (e.g. an RPC latency histogram) can expose
// the same object through the registry without double-observing.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	r.mustBeFree(name)
	r.hists[name] = h
}

// LookupHistogram returns the named histogram, or nil when absent.
func (r *Registry) LookupHistogram(name string) *Histogram {
	return r.hists[name]
}

// Value returns the named gauge's value. The second result is false when
// the name is unregistered or names a histogram.
func (r *Registry) Value(name string) (float64, bool) {
	if fn, ok := r.gauges[name]; ok {
		return fn(), true
	}
	return 0, false
}

// Names returns every registered instrument name across both kinds,
// sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.gauges)+len(r.hists))
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
		if fn := r.gauges[n]; fn != nil {
			b.WriteString(n)
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(fn(), 'g', -1, 64))
		} else {
			fmt.Fprintf(&b, "%s={%s}", n, r.hists[n])
		}
	}
	return b.String()
}
