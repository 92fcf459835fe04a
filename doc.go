// Package fastsafe is a full-system simulation study of "Fast & Safe IO
// Memory Protection" (Rubin, Agarwal, Cai, Agarwal — SOSP 2024).
//
// The paper's contribution — reducing the cost of each IOTLB miss by
// allocating contiguous descriptor-sized IOVAs, preserving the IOMMU's
// page-table caches across invalidations, and batching invalidation-queue
// requests — is implemented in internal/core over a faithful simulation of
// every substrate it touches: the 4-level IO page table (internal/ptable),
// the IOTLB and page-table caches with their walker and invalidation queue
// (internal/iommu), the Linux red-black-tree + per-CPU-magazine IOVA
// allocator (internal/iova), the PCIe path and its translation latency
// model (internal/pcie), a multi-page-descriptor NIC (internal/nic), a
// DCTCP-style transport (internal/transport), and the host wiring with
// per-core CPU accounting (internal/host).
//
// cmd/fsbench regenerates every figure in the paper's evaluation and
// cmd/fssim runs one configuration from its flags; EXPERIMENTS.md records
// the paper-vs-simulated comparison. Start with examples/quickstart.
//
// Every front end — fsbench's figures, fssim, the examples — builds a
// host.Config (a host.ClusterConfig for a switched cluster) and reads
// host.Results. Simulations are deterministic and self-contained, so
// sweeps are embarrassingly parallel: internal/runner fans the cells of
// a figure, or fssim's seeds, across workers and returns results in job
// order. A Go program outside this module embeds the simulator the way
// simbench/ does: its module path lies under fastsafe/ (so it may import
// the internal packages) and its go.mod replaces fastsafe with a
// checkout of this repository.
//
// The root package holds no code, only repo-wide tests: the lints over
// every package's source and the per-figure benchmarks.
package fastsafe
