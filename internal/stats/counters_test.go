package stats

import "testing"

// TestRatio checks PerPage, the normaliser miss counters go through:
// a count over the 4KB pages a byte count spans, 0 when nothing moved.
func TestRatio(t *testing.T) {
	if got := PerPage(3, 16<<10); got != 0.75 {
		t.Fatalf("PerPage(3, 16KB) = %v, want 0.75", got)
	}
	if got := PerPage(3, 0); got != 0 {
		t.Fatalf("PerPage over 0 bytes = %v, want 0", got)
	}
}

func TestGbps(t *testing.T) {
	// 12.5 GB transferred in 1 second = 100 Gbps.
	if got := Gbps(12_500_000_000, 1_000_000_000); got != 100 {
		t.Fatalf("Gbps = %v, want 100", got)
	}
	if got := Gbps(100, 0); got != 0 {
		t.Fatalf("Gbps with zero time = %v, want 0", got)
	}
}
