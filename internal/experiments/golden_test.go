package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// goldenOpts are the fixed windows the golden files were generated with.
// They must never change: the files under testdata/golden lock the exact
// table bytes the seed configurations produce, so any refactor of the
// host/device construction path that perturbs event ordering — and hence
// results — fails this test.
func goldenOpts() Options {
	return Options{
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
		RPCMeasure: 9 * sim.Millisecond,
		Parallel:   4,
	}
}

// goldenFigs cover the construction paths worth locking: the flow sweep
// (fig2, fig7), the all-modes table (every protection datapath), the
// storage co-tenant figure (shared-IOMMU multi-device path), the cluster
// figure (N hosts on the shared engine and fabric), the clusterscale
// figure (the sharded conservative-parallel engine at 64-256 hosts; its
// rendered rows are deterministic — wall-clock lives in the JSON-only
// Notes), the rdma figure (one-sided peer flows through the device-side
// ATS cache, including the strawman's audited stale hits), and the
// capability figure (the capability-table protection family next to the
// page-table family, with the lazy-revoke stale window audited), and the
// serving figure (the open-loop churn fleet — including the cohort8 rows,
// whose counter columns must stay identical to the exact churn-0.20 host
// rows by the cohort grouping-invariance contract), and the adaptive
// figure (the control plane's two mid-run mode switches under the
// windowed fault burst, with the per-phase tracking ratios and the
// zero-stale audit columns locked byte-for-byte), and the paper's
// application figures fig9-fig12 (the RPC and real-application message
// paths, abstract-remote Tx bulk flows, and the ring-size sweep).
var goldenFigs = []string{"fig2", "fig7", "modes", "storage", "cluster", "clusterscale", "rdma", "capability", "serving", "adaptive",
	"fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig12"}

// TestGoldenFiguresByteIdentical regenerates each golden figure and
// requires byte-for-byte identity with the committed file. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/experiments -run Golden —
// but only when a results-changing modification is intentional.
func TestGoldenFiguresByteIdentical(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, id := range goldenFigs {
		if id == "clusterscale" && race.Enabled {
			// The figure times sequential 64-256-host cells; under the
			// race detector that is ~10x slower and the wall-clock notes
			// are meaningless. The sharded engine's race coverage comes
			// from the host equivalence tests instead.
			continue
		}
		tab, err := ByID(id, goldenOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := tab.String()
		path := filepath.Join("testdata", "golden", id+".txt")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", id, err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from golden file %s:\ngot:\n%s\nwant:\n%s",
				id, path, got, string(want))
		}
	}
}
