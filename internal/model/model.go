// Package model implements the paper's analytic throughput model (§2.2):
//
//	T = p / (l0 + M·lm)
//
// where p is the packet size, l0 the average no-protection DMA latency per
// packet, M the average number of page-table memory reads per packet, and
// lm the average IOMMU-to-memory read latency. The paper fits l0 = 65ns
// and lm = 197ns from its 5- and 10-flow experiments and reports the model
// tracks measured throughput within 10%.
package model

// Paper-fitted constants (§2.2). The simulated host's PCIe links take
// their base DMA latency and default page-table read latency from them.
const (
	L0Ns = 65.0
	LmNs = 197.0
)

// ThroughputGbps returns the PCIe-limited application throughput estimate
// in Gbps for packetBytes-sized packets incurring memReads page-table
// reads per packet, capped by linkGbps (the NIC line rate).
func ThroughputGbps(packetBytes, memReads, l0Ns, lmNs, linkGbps float64) float64 {
	if packetBytes <= 0 {
		return 0
	}
	lat := l0Ns + memReads*lmNs
	if lat <= 0 {
		return linkGbps
	}
	t := packetBytes * 8 / lat // bits per ns == Gbps
	if t > linkGbps {
		return linkGbps
	}
	return t
}

// FitL0Lm solves for (l0, lm) from two measured operating points, exactly
// as the paper does with its 5-flow and 10-flow experiments. Each point is
// (memReads per packet, measured throughput in Gbps) for packets of
// packetBytes. It returns ok=false when the two points are degenerate.
func FitL0Lm(packetBytes float64, m1, t1, m2, t2 float64) (l0, lm float64, ok bool) {
	if t1 <= 0 || t2 <= 0 || m1 == m2 {
		return 0, 0, false
	}
	// t = 8p/(l0 + m·lm)  =>  l0 + m·lm = 8p/t
	a := packetBytes * 8 / t1
	b := packetBytes * 8 / t2
	lm = (b - a) / (m2 - m1)
	l0 = a - m1*lm
	return l0, lm, true
}

// RelativeError returns |estimate-measured|/measured, or 0 when measured
// is zero. Used to assert the model's ±10% accuracy claim against the
// simulator.
func RelativeError(estimate, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	d := estimate - measured
	if d < 0 {
		d = -d
	}
	return d / measured
}
