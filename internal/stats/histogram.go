// Package stats provides the measurement primitives used across the
// simulator: the instrument registry, latency histograms with percentile
// queries, and the stack-distance (reuse-distance) calculator used to
// reproduce the IOVA locality plots (Figures 2e, 3e, 7e, 8e of the paper).
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram records int64 samples (typically latencies in nanoseconds) in
// logarithmically-spaced buckets with bounded relative error, similar in
// spirit to HDR histograms. The zero value is ready to use.
//
// The buckets are rows of subBuckets counts. Row 0 counts the values
// 0..63 exactly; row r >= 1 splits [2^(r+5), 2^(r+6)) into subBuckets
// linear sub-buckets. A row is allocated when a sample first lands in it.
type Histogram struct {
	rows  [numRows]*[subBuckets]int64
	count int64
	sum   int64
	min   int64
	max   int64
}

// subBuckets controls relative precision: each power-of-two range is split
// into this many linear sub-buckets, bounding relative error to ~1/subBuckets.
const (
	subBuckets = 64
	subBits    = 6 // log2(subBuckets)
	// numRows covers every int64: row 0, then one row per power of two
	// from 2^subBits to 2^62.
	numRows = 64 - subBits
)

// bucketKey maps a value to its bucket's lower bound.
func bucketKey(v int64) int64 {
	if v < subBuckets {
		return v
	}
	// Keep the top subBits+1 bits.
	drop := 63 - bits.LeadingZeros64(uint64(v)) - subBits
	return (v >> drop) << drop
}

// bucket returns the row and sub-bucket that count v (v >= 0).
func bucket(v int64) (row, i int) {
	if v < subBuckets {
		return 0, int(v)
	}
	row = numRows - bits.LeadingZeros64(uint64(v))
	return row, int(v>>(row-1)) - subBuckets
}

// bucketLow is the lower bound of sub-bucket i of row r.
func bucketLow(r, i int) int64 {
	if r == 0 {
		return int64(i)
	}
	return int64(subBuckets+i) << (r - 1)
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	r, i := bucket(v)
	row := h.rows[r]
	if row == nil {
		row = new([subBuckets]int64)
		h.rows[r] = row
	}
	row[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1). The estimate
// is the lower bound of the bucket containing the quantile, so the relative
// error is bounded by the bucket width (~1.6%).
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for r, row := range &h.rows {
		if row == nil {
			continue
		}
		for i, n := range row {
			if cum += n; cum >= rank {
				return bucketLow(r, i)
			}
		}
	}
	return h.max
}

// Percentiles returns the standard tail-latency percentiles used in the
// paper's Figure 9: P50, P90, P99, P99.9, P99.99.
func (h *Histogram) Percentiles() [5]int64 {
	return [5]int64{
		h.Quantile(0.50),
		h.Quantile(0.90),
		h.Quantile(0.99),
		h.Quantile(0.999),
		h.Quantile(0.9999),
	}
}

// Reset discards all samples. The rows stay allocated, zeroed, for the
// samples that follow.
func (h *Histogram) Reset() {
	for _, row := range &h.rows {
		if row != nil {
			*row = [subBuckets]int64{}
		}
	}
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}

func (h *Histogram) String() string {
	p := h.Percentiles()
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p90=%d p99=%d p999=%d p9999=%d max=%d",
		h.count, h.Mean(), p[0], p[1], p[2], p[3], p[4], h.max)
}
