package stats

import (
	"fastsafe/internal/sim"
)

// Series is one sampled time series: a probe's value at each sampler tick.
// Times holds the virtual timestamps (shared across all of one sampler's
// series) and Values the probe readings, index-aligned.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Window returns the sub-series with sample times in (from, to]. The
// returned slices alias the original backing arrays.
func (s Series) Window(from, to sim.Time) Series {
	lo := 0
	for lo < len(s.Times) && s.Times[lo] <= from {
		lo++
	}
	hi := lo
	for hi < len(s.Times) && s.Times[hi] <= to {
		hi++
	}
	return Series{Name: s.Name, Times: s.Times[lo:hi], Values: s.Values[lo:hi]}
}

// Sampler records per-interval time series in virtual time. It is driven
// by the simulation engine: once started, it schedules one self-renewing
// tick event every interval, reads every registered probe, and appends the
// readings to per-probe series.
//
// Probes must be strictly observational — read-only closures over live
// simulator state that never schedule events, mutate state, or consume
// engine randomness. Under that contract the sampler cannot perturb the
// relative order of simulation events: its ticks only interleave extra
// read-only callbacks into the event stream.
type Sampler struct {
	eng     *sim.Engine
	every   sim.Duration
	names   []string
	probes  []func(dt sim.Duration) float64
	times   []sim.Time
	values  [][]float64
	started bool
}

// NewSampler returns a sampler ticking every interval once started.
// Panics if every is not positive.
func NewSampler(eng *sim.Engine, every sim.Duration) *Sampler {
	if every <= 0 {
		panic("stats: sampler interval must be positive")
	}
	return &Sampler{eng: eng, every: every}
}

// Probe registers a named probe. fn receives the interval covered by this
// tick and returns the series value for it. Probes appear in Series() in
// registration order, which is fixed by the wiring code and therefore
// deterministic. Registering after Start panics: the series would be
// misaligned with the ticks already recorded.
func (s *Sampler) Probe(name string, fn func(dt sim.Duration) float64) {
	if s.started {
		panic("stats: Probe after sampler Start")
	}
	s.names = append(s.names, name)
	s.probes = append(s.probes, fn)
	s.values = append(s.values, nil)
}

// GaugeProbe registers a probe that samples an instantaneous value,
// ignoring the interval.
func (s *Sampler) GaugeProbe(name string, fn func() float64) {
	s.Probe(name, func(sim.Duration) float64 { return fn() })
}

// Start schedules the first tick one interval from now. Starting twice
// panics.
func (s *Sampler) Start() {
	if s.started {
		panic("stats: sampler started twice")
	}
	s.started = true
	s.eng.After(s.every, s.tick)
}

func (s *Sampler) tick() {
	s.times = append(s.times, s.eng.Now())
	for i, p := range s.probes {
		s.values[i] = append(s.values[i], p(s.every))
	}
	s.eng.After(s.every, s.tick)
}

// Series returns every recorded series in probe-registration order. The
// slices alias the sampler's backing arrays.
func (s *Sampler) Series() []Series {
	out := make([]Series, len(s.names))
	for i, n := range s.names {
		out[i] = Series{Name: n, Times: s.times, Values: s.values[i]}
	}
	return out
}

// SeriesWindow returns every series restricted to sample times in
// (from, to] — the measurement-window view of the timeline.
func (s *Sampler) SeriesWindow(from, to sim.Time) []Series {
	out := s.Series()
	for i := range out {
		out[i] = out[i].Window(from, to)
	}
	return out
}

// DeltaProbe adapts a cumulative int64 reader into a per-interval delta
// probe: each tick reports the growth since the previous tick.
func DeltaProbe(cum func() int64) func(sim.Duration) float64 {
	var prev int64
	return func(sim.Duration) float64 {
		now := cum()
		d := now - prev
		prev = now
		return float64(d)
	}
}

// GbpsProbe adapts a cumulative byte-count reader into a per-interval
// throughput probe in decimal gigabits per second.
func GbpsProbe(cumBytes func() int64) func(sim.Duration) float64 {
	var prev int64
	return func(dt sim.Duration) float64 {
		now := cumBytes()
		d := now - prev
		prev = now
		return Gbps(d, int64(dt))
	}
}

// PerPageProbe adapts two cumulative readers — an event count and a byte
// count — into a per-interval "events per 4KB page of data" probe, the
// paper's normalisation for cache-miss rates.
func PerPageProbe(count, bytes func() int64) func(sim.Duration) float64 {
	var prevC, prevB int64
	return func(sim.Duration) float64 {
		c, b := count(), bytes()
		dc, db := c-prevC, b-prevB
		prevC, prevB = c, b
		return PerPage(dc, db)
	}
}
