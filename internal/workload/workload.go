// Package workload defines the application scenarios the paper evaluates,
// mapping each to a host configuration:
//
//   - Iperf: the §2.2 microbenchmark — bulk DCTCP flows into the receiver.
//   - Bidirectional: the §4.1 extreme Rx/Tx interference experiment.
//   - RPC: the netperf-style latency-sensitive app colocated with iperf
//     (Figure 9).
//   - Redis: SET-workload key-value server (Figure 11a; with 8KB values,
//     the Figure 12 ablation) — bulk values inbound, small replies
//     outbound.
//   - Nginx: wrk-style web workload (Figure 11b), measured at the
//     bulk-receiving side — small requests out, pages in.
//   - SPDK: remote-storage client (Figure 11c) — small read requests out,
//     block payloads in.
package workload

import (
	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
)

// Spec is one runnable experiment cell.
type Spec struct {
	Name    string
	Host    host.Config
	Msg     *host.MsgConfig
	Warmup  sim.Duration
	Measure sim.Duration
}

// Run executes the cell and returns its measured results.
func (s Spec) Run() (host.Results, error) {
	h, err := host.New(s.Host)
	if err != nil {
		return host.Results{}, err
	}
	if s.Msg != nil {
		h.InstallMessages(*s.Msg)
	}
	warm, meas := s.Warmup, s.Measure
	if warm == 0 {
		warm = 5 * sim.Millisecond
	}
	if meas == 0 {
		meas = 20 * sim.Millisecond
	}
	return h.Run(warm, meas), nil
}

// Iperf is the default microbenchmark: `flows` bulk flows over five cores,
// 4KB MTU, ring 256 (§2.2 defaults). ring <= 0 keeps the default.
func Iperf(mode core.Mode, flows, ring int) Spec {
	return Spec{
		Name: "iperf",
		Host: host.Config{Mode: mode, RxFlows: flows, RingPackets: ring},
	}
}

// IperfTrace is Iperf with the PTcache-L3 locality trace enabled
// (Figures 2e/3e/7e/8e).
func IperfTrace(mode core.Mode, flows, ring, limit int) Spec {
	s := Iperf(mode, flows, ring)
	s.Host.Telemetry.TraceL3 = true
	s.Host.Telemetry.TraceLimit = limit
	return s
}

// Bidirectional runs `pairs` Rx flows and `pairs` Tx flows, each on its own
// core (Figure 10's per-core flow placement).
func Bidirectional(mode core.Mode, pairs int) Spec {
	return Spec{
		Name: "bidirectional",
		Host: host.Config{Mode: mode, Cores: pairs, RxFlows: pairs, TxFlows: pairs},
	}
}

// RPC colocates a closed-loop request/response stream of the given size
// with the default five-flow iperf load, on a dedicated core (Figure 9).
func RPC(mode core.Mode, rpcBytes int) Spec {
	return Spec{
		Name: "rpc",
		Host: host.Config{Mode: mode},
		Msg: &host.MsgConfig{
			Pattern:   host.LocalServes,
			Streams:   1,
			Depth:     1,
			ReqBytes:  rpcBytes,
			RespBytes: rpcBytes,
			AppCPU:    2 * sim.Microsecond,
			Cores:     1,
			CoreBase:  5, // separate core from the iperf flows
		},
		Measure: 100 * sim.Millisecond,
	}
}

// boundedDepth caps per-stream pipelining so the aggregate in-flight
// payload stays within a few NIC buffers. The message layer has no
// congestion window (the paper's apps run over TCP), so unbounded depth at
// large payloads would collapse into timeout storms even with the IOMMU
// off.
func boundedDepth(want, streams, payload int) int {
	const budget = 3 << 20
	d := budget / (streams * payload)
	if d > want {
		d = want
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Redis models the Figure 11a SET workload: one server instance per core
// (8 cores, 9K MTU), clients pipelining up to 32 requests per connection,
// value payloads inbound and 64B replies outbound.
func Redis(mode core.Mode, valueBytes int) Spec {
	return Spec{
		Name: "redis",
		Host: host.Config{Mode: mode, Cores: 8, RxFlows: -1, MTU: 9000},
		Msg: &host.MsgConfig{
			Pattern:   host.LocalServes,
			Streams:   16,
			Depth:     boundedDepth(32, 16, valueBytes),
			ReqBytes:  valueBytes + 4, // 4B key + value
			RespBytes: 64,
			AppCPU:    1500,
		},
	}
}

// Nginx models the Figure 11b web workload from the bulk-receiving side:
// small HTTP requests out, page-sized responses in, 8 cores, 9K MTU.
func Nginx(mode core.Mode, pageBytes int) Spec {
	return Spec{
		Name: "nginx",
		Host: host.Config{Mode: mode, Cores: 8, RxFlows: -1, MTU: 9000},
		Msg: &host.MsgConfig{
			Pattern:   host.LocalClient,
			Streams:   16,
			Depth:     boundedDepth(8, 16, pageBytes),
			ReqBytes:  200,
			RespBytes: pageBytes,
			AppCPU:    2 * sim.Microsecond,
		},
	}
}

// SPDK models the Figure 11c remote-storage client: read requests out,
// block payloads in, IO depth 8 per stream, 8 cores, 9K MTU.
func SPDK(mode core.Mode, blockBytes int) Spec {
	return Spec{
		Name: "spdk",
		Host: host.Config{Mode: mode, Cores: 8, RxFlows: -1, MTU: 9000},
		Msg: &host.MsgConfig{
			Pattern:   host.LocalClient,
			Streams:   8,
			Depth:     boundedDepth(8, 8, blockBytes),
			ReqBytes:  128,
			RespBytes: blockBytes,
			AppCPU:    1 * sim.Microsecond,
		},
	}
}

// Serving is the serving-fleet churn scenario: an open-loop fleet of
// `conns` heavy-tailed request/response connections, each dying with
// probability `churn` per request and being reborn with a fresh DMA
// buffer (so (un)map and IOVA alloc/free rates scale with churn).
// cohortSize > 1 aggregates connections into flow cohorts that share one
// simulated latency model; 1 simulates every connection exactly.
func Serving(mode core.Mode, conns int, churn float64, cohortSize int) Spec {
	return Spec{
		Name: "serving",
		Host: host.Config{
			Mode:    mode,
			RxFlows: -1, // the open-loop fleet is the workload; no bulk flows
			Serve:   &host.ServeConfig{Conns: conns, Churn: churn, Cohort: cohortSize},
		},
	}
}
