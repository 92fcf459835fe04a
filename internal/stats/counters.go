package stats

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
