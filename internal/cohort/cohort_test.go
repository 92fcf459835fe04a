package cohort

import (
	"math"
	"strings"
	"testing"

	"fastsafe/internal/sim"
)

// drain pops n arrivals from the fleet, completing each immediately
// with a synthetic latency (completion feeds the death/rebirth path but
// never alters arrival draws, mirroring the invariance contract).
func drain(t *testing.T, f *Fleet, n int) []Arrival {
	t.Helper()
	var out []Arrival
	for len(out) < n {
		at, ok := f.Peek()
		if !ok {
			t.Fatal("fleet ran dry: every slot should rebirth synchronously")
		}
		a, ok := f.Next(at)
		if !ok {
			t.Fatalf("Peek said %d but Next refused", at)
		}
		out = append(out, a)
		f.Complete(a, at, int64(1000+a.Req))
	}
	return out
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Conns: 0, Cohort: 1, Churn: 0.2}, "conns must be >= 1"},
		{Config{Conns: -3, Cohort: 1, Churn: 0.2}, "conns must be >= 1"},
		{Config{Conns: 4, Cohort: 0, Churn: 0.2}, "cohort size must be >= 1"},
		{Config{Conns: 4, Cohort: -1, Churn: 0.2}, "cohort size must be >= 1"},
		{Config{Conns: 4, Cohort: 1, Churn: 0}, "churn rate must be in (0, 1]"},
		{Config{Conns: 4, Cohort: 1, Churn: -0.5}, "churn rate must be in (0, 1]"},
		{Config{Conns: 4, Cohort: 1, Churn: 1.5}, "churn rate must be in (0, 1]"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want substring %q", c.cfg, err, c.want)
		}
	}
	if err := (Config{Conns: 4, Cohort: 1, Churn: 1}).Validate(); err != nil {
		t.Errorf("churn 1.0 must be accepted (every request kills its connection): %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Conns: 16, Cohort: 1, Churn: 0.3, Seed: 7}
	f1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1 := drain(t, f1, 5000)
	a2 := drain(t, f2, 5000)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverged across identical fleets: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	if f1.Deaths() != f2.Deaths() || births(f1) != births(f2) {
		t.Fatalf("churn accounting diverged: %d/%d deaths, %d/%d births",
			f1.Deaths(), f2.Deaths(), births(f1), births(f2))
	}
	if f1.Deaths() == 0 {
		t.Fatal("no deaths in 5000 requests at churn 0.3: the churn path is vacuous")
	}
}

// TestGroupingInvariance is the core cohort contract: the event stream
// — which connection issues which request of which size at which time —
// is bitwise identical whether connections are simulated exactly
// (cohort 1) or aggregated (cohort K). Only latency attribution may
// differ.
func TestGroupingInvariance(t *testing.T) {
	base := Config{Conns: 12, Churn: 0.25, Seed: 3}
	streams := map[int][]Arrival{}
	for _, k := range []int{1, 3, 12} {
		cfg := base
		cfg.Cohort = k
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = drain(t, f, 4000)
	}
	for _, k := range []int{3, 12} {
		for i := range streams[1] {
			a, b := streams[1][i], streams[k][i]
			// Group differs by construction; everything else must match.
			b.Group = a.Group
			if a != b {
				t.Fatalf("cohort %d: arrival %d diverged from exact model: %+v vs %+v", k, i, streams[1][i], streams[k][i])
			}
		}
	}
}

func TestLatencyAttributionExactAtOne(t *testing.T) {
	f, err := New(Config{Conns: 4, Cohort: 1, Churn: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at, _ := f.Peek()
	a, _ := f.Next(at)
	if rec, _ := f.Complete(a, at, 12345); rec != 12345 {
		t.Fatalf("cohort 1 must record the measured latency exactly, got %d", rec)
	}

	fk, err := New(Config{Conns: 4, Cohort: 2, Churn: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at, _ = fk.Peek()
	a, _ = fk.Next(at)
	rec, _ := fk.Complete(a, at, 8000)
	// First EWMA step from zero with gain 1/8: 1000.
	if rec != 1000 {
		t.Fatalf("cohort > 1 must record the group model (EWMA), got %d", rec)
	}
}

func TestDistributionShape(t *testing.T) {
	cfg := Config{Conns: 8, Cohort: 1, Churn: 0.05, Seed: 11}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, f, 20000)
	full := cfg.withDefaults()
	var sumReq, sumResp float64
	var tailReq int
	for _, a := range arr {
		if a.Req < full.ReqMin || a.Req > full.ReqMax {
			t.Fatalf("request size %d outside [%d, %d]", a.Req, full.ReqMin, full.ReqMax)
		}
		if a.Resp < full.RespMin || a.Resp > full.RespMax {
			t.Fatalf("response size %d outside [%d, %d]", a.Resp, full.RespMin, full.RespMax)
		}
		sumReq += float64(a.Req)
		sumResp += float64(a.Resp)
		if a.Req > 16<<10 {
			tailReq++
		}
	}
	meanReq := sumReq / float64(len(arr))
	// Bounded Pareto (alpha 1.3, 256..64KB) has mean ~900B; accept a wide
	// band — the point is heavy-tailedness, not the exact constant.
	if meanReq < 500 || meanReq > 1500 {
		t.Errorf("request mean %.0fB outside the plausible bounded-Pareto band", meanReq)
	}
	if tailReq == 0 {
		t.Error("no request above 16KB in 20000 draws: the tail is missing")
	}
	// Mean inter-arrival across the fleet ~ MeanGap/Conns.
	var f2 *Fleet
	f2, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	for i := 0; i < 20000; i++ {
		at, _ := f2.Peek()
		a, _ := f2.Next(at)
		f2.Complete(a, at, 1000)
		last = at
	}
	meanGap := float64(last) / 20000
	want := float64(full.MeanGap) / float64(cfg.Conns)
	if meanGap < want*0.8 || meanGap > want*1.2 {
		t.Errorf("aggregate mean gap %.0fns, want ~%.0fns (Poisson superposition)", meanGap, want)
	}
}

func TestGroupAggregates(t *testing.T) {
	f, err := New(Config{Conns: 10, Cohort: 4, Churn: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gs := f.groups
	if len(gs) != 3 || gs[0].Members != 4 || gs[2].Members != 2 {
		t.Fatalf("group layout wrong: %+v", gs)
	}
	arr := drain(t, f, 1000)
	var want [3]int64
	for _, a := range arr {
		want[a.Group] += int64(a.Req + a.Resp)
	}
	for g, w := range want {
		if got := f.groups[g].Bytes; got != w {
			t.Errorf("group %d bytes = %d, want exact member sum %d", g, got, w)
		}
		if f.groups[g].InFlight != 0 {
			t.Errorf("group %d leaked in-flight accounting: %d", g, f.groups[g].InFlight)
		}
	}
}

// births counts connection incarnations: each slot's first and one per
// rebirth since.
func births(f *Fleet) int64 {
	n := int64(len(f.conns))
	for _, c := range f.conns {
		n += int64(c.gen)
	}
	return n
}

// Abandon must keep churn accounting consistent: a Last arrival still
// dies and rebirths (slots never leak), a non-Last one records nothing.
func TestAbandonChurnAccounting(t *testing.T) {
	// Churn 1: every request is its connection's last.
	f, err := New(Config{Conns: 1, Cohort: 1, Churn: 1})
	if err != nil {
		t.Fatal(err)
	}
	at, ok := f.Peek()
	if !ok {
		t.Fatal("fresh fleet has no pending arrival")
	}
	a, ok := f.Next(sim.Time(at))
	if !ok {
		t.Fatal("due arrival not popped")
	}
	if !a.Last {
		t.Fatal("churn 1 must mark every arrival Last")
	}
	// The sole connection is between death and rebirth only while its
	// Last arrival is in flight — the one window Peek can come up empty.
	if _, ok := f.Peek(); ok {
		t.Fatal("conn awaiting its Last response should not be in the heap")
	}
	if !f.Abandon(a, sim.Time(at)) {
		t.Fatal("abandoning a Last arrival must rebirth the connection")
	}
	if f.Deaths() != 1 || births(f) != 2 {
		t.Fatalf("deaths=%d births=%d, want 1 and 2", f.Deaths(), births(f))
	}
	if _, ok := f.Peek(); !ok {
		t.Fatal("rebirth must reschedule the slot")
	}
	if g := f.groups[0]; g.InFlight != 0 {
		t.Fatalf("InFlight = %d after abandon, want 0", g.InFlight)
	}
	if f.Cohort() != 1 {
		t.Fatalf("Cohort() = %d, want 1", f.Cohort())
	}

	// Churn ~0: arrivals are never Last, so Abandon does not rebirth.
	f2, err := New(Config{Conns: 1, Cohort: 1, Churn: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	at2, _ := f2.Peek()
	a2, _ := f2.Next(sim.Time(at2))
	if a2.Last {
		t.Fatal("churn 1e-12 marked an arrival Last")
	}
	if f2.Abandon(a2, sim.Time(at2)) {
		t.Fatal("abandoning a non-Last arrival must not rebirth")
	}
	if f2.Deaths() != 0 {
		t.Fatalf("deaths = %d, want 0", f2.Deaths())
	}
}

// A degenerate Pareto range (lo == hi) pins every draw to that size.
func TestDegeneratePayloadRange(t *testing.T) {
	f, err := New(Config{Conns: 1, Cohort: 1, Churn: 0.5,
		ReqMin: 512, ReqMax: 512, RespMin: 64, RespMax: 64})
	if err != nil {
		t.Fatal(err)
	}
	at, _ := f.Peek()
	a, _ := f.Next(sim.Time(at))
	if a.Req != 512 || a.Resp != 64 {
		t.Fatalf("degenerate range drew req=%d resp=%d, want 512 and 64", a.Req, a.Resp)
	}
}

// paretoPerDraw is the bounded-Pareto inverse CDF with (lo/hi)^alpha
// computed at every draw, as the fleet once did.
func paretoPerDraw(r *rng, lo, hi int, alpha float64) int {
	if lo >= hi {
		return lo
	}
	u := r.float64()
	l, h := float64(lo), float64(hi)
	ratio := math.Pow(l/h, alpha)
	n := int(l / math.Pow(1-u*(1-ratio), 1/alpha))
	return max(lo, min(n, hi))
}

// TestParetoMatchesPerDrawFormula: the fleet's size draws, with the
// constant computed once in New, equal the per-draw formula draw for
// draw and consume the stream alike, at the defaults, other tail
// indices, a range wide enough that int(x) keeps most of x's bits, and
// a degenerate range.
func TestParetoMatchesPerDrawFormula(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Alpha: 0.7, ReqMin: 1, ReqMax: 1 << 20},
		{Alpha: 2.9, RespMin: 100, RespMax: 101},
		{Alpha: 1.1, ReqMin: 64, ReqMax: 1 << 50},
		{ReqMin: 512, ReqMax: 512},
	} {
		cfg.Conns, cfg.Cohort, cfg.Churn, cfg.Seed = 4, 1, 0.5, 7
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := f.cfg
		for conn := 0; conn < 64; conn++ {
			got, want := connRNG(c.Seed, conn, 0), connRNG(c.Seed, conn, 0)
			for i := 0; i < 2000; i++ {
				if g, w := f.req.draw(&got), paretoPerDraw(&want, c.ReqMin, c.ReqMax, c.Alpha); g != w {
					t.Fatalf("%+v conn %d draw %d: request %d, per-draw formula %d", cfg, conn, i, g, w)
				}
				if g, w := f.resp.draw(&got), paretoPerDraw(&want, c.RespMin, c.RespMax, c.Alpha); g != w {
					t.Fatalf("%+v conn %d draw %d: response %d, per-draw formula %d", cfg, conn, i, g, w)
				}
			}
			if got != want {
				t.Fatalf("%+v conn %d: streams diverged", cfg, conn)
			}
		}
	}
}
