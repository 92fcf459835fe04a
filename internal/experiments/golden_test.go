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

// goldenFigs is every figure id: each table's rendered bytes are locked,
// so a refactor that perturbs event ordering anywhere — the flow sweeps,
// the locality and model figures, the multi-device, storage, cluster,
// sharded, RDMA, capability, serving and adaptive paths — fails here.
var goldenFigs = IDs()

// TestGoldenFiguresByteIdentical regenerates each golden figure and
// requires byte-for-byte identity with the committed file. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/experiments -run Golden —
// but only when a results-changing modification is intentional.
func TestGoldenFiguresByteIdentical(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, id := range goldenFigs {
		if id == "clusterscale" && race.Enabled {
			// The figure runs 64-256-host clusters, ~10x slower under
			// the race detector. The sharded engine's race coverage
			// comes from the host equivalence tests instead.
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
