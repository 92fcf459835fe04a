package host

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

// runStorage declares one storage co-tenant in Topology on a default
// host and runs a short window, returning the device for inspection.
func runStorage(t *testing.T, mode core.Mode, gbps float64) *storage {
	t.Helper()
	h, err := New(Config{Mode: mode, Topology: Topology{Storage: []StorageSpec{{ReadGBps: gbps}}}})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(1*sim.Millisecond, 4*sim.Millisecond)
	return h.stores[0]
}

func TestStorageDatapath(t *testing.T) {
	s := runStorage(t, core.Strict, 8)
	if s.Name() != "storage0" || s.Kind() != "storage" {
		t.Fatalf("identity = %s/%s", s.Name(), s.Kind())
	}
	if s.Domain() == nil {
		t.Fatal("no protection domain after New")
	}
	st := s.Stats()
	if st.Ops == 0 || st.Ops != s.blocks {
		t.Fatalf("ops = %d, blocks = %d", st.Ops, s.blocks)
	}
	// Every completed DMA moves a whole 128KB block.
	if want := st.Ops * (128 << 10); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d (128KB blocks)", st.Bytes, want)
	}
}

// TestStorageUntranslatedSkipsWalks: with the IOMMU off the device still
// moves blocks but performs no translations, so its domain never touches
// the shared walker.
func TestStorageUntranslatedSkipsWalks(t *testing.T) {
	s := runStorage(t, core.Off, 8)
	if s.blocks == 0 {
		t.Fatal("untranslated storage issued no blocks")
	}
	if c := s.h.mmu.CountersOf(s.dom.ID()); c.Translations != 0 || c.Walks != 0 {
		t.Fatalf("untranslated storage made %d translations and %d walks", c.Translations, c.Walks)
	}
}

// TestNewRejectsNonPositiveStorageRate: a storage device's rate has no
// default, so New and NewCluster reject zero as well as a negative rate,
// naming the device by its Topology index.
func TestNewRejectsNonPositiveStorageRate(t *testing.T) {
	for _, c := range []struct {
		storage []StorageSpec
		want    string
	}{
		{[]StorageSpec{{ReadGBps: -4}}, "host: Topology.Storage[0].ReadGBps must be > 0, got -4"},
		{[]StorageSpec{{ReadGBps: 8}, {}}, "host: Topology.Storage[1].ReadGBps must be > 0, got 0"},
	} {
		cfg := Config{Mode: core.FNS, Topology: Topology{Storage: c.storage}}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%+v) err = %v, want %q", c.storage, err, c.want)
		}
		if _, err := NewCluster(ClusterConfig{Hosts: 2, Host: cfg}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewCluster with storage %+v: err = %v, want %q", c.storage, err, c.want)
		}
	}
}
