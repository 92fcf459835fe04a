package stats

// Counter is a monotonically increasing event count.
//
// Counters are engine-confined, not atomic: every Counter belongs to
// exactly one simulation's single-threaded event loop, and the
// sweep runner keeps whole simulations on single goroutines. Audited for
// the concurrent runner: nothing in this package is shared across hosts,
// so the hot-path increments stay plain int64 (go test -race enforces
// this in CI via the parallel-sweep tests).
type Counter struct{ n int64 }

// Add increments the counter by d (d may be zero; negative deltas are
// programming errors and panic to surface them early).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: negative Counter delta")
	}
	c.n += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns a/b as float64, or 0 when b is 0. It is the helper used to
// normalise miss counters "per page worth of data" the way the paper does.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Gbps converts a byte count over a duration in nanoseconds into gigabits
// per second (decimal gigabits, as in "100Gbps NIC").
func Gbps(bytes int64, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(ns)
}

// PerPage normalises an event count by the number of 4KB pages a byte
// count spans — the paper's "misses per page worth of delivered data"
// unit, used for both the host-wide and the per-device breakdowns.
// Returns 0 when no bytes moved.
func PerPage(count, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(count) / (float64(bytes) / 4096)
}
