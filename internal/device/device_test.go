package device_test

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
)

// runStorage attaches one storage co-tenant to a default host and runs a
// short window, returning the device for inspection.
func runStorage(t *testing.T, mode core.Mode, gbps float64) *device.Storage {
	t.Helper()
	h, err := host.New(host.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.InstallStorage(host.StorageSpec{ReadGBps: gbps})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(1*sim.Millisecond, 4*sim.Millisecond)
	return s
}

func TestStorageDatapath(t *testing.T) {
	s := runStorage(t, core.Strict, 8)
	if s.Name() != "storage0" || s.Kind() != "storage" {
		t.Fatalf("identity = %s/%s", s.Name(), s.Kind())
	}
	if s.Domain() == nil {
		t.Fatal("no protection domain after Attach")
	}
	st := s.Stats()
	if st.Ops == 0 || st.Ops != s.Blocks() {
		t.Fatalf("ops = %d, blocks = %d", st.Ops, s.Blocks())
	}
	// Default block size: every completed DMA moves 128KB.
	if want := st.Ops * (128 << 10); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d (128KB blocks)", st.Bytes, want)
	}
}

// TestStorageUntranslatedSkipsWalks: with the IOMMU off the device still
// moves blocks but performs no translations, so its domain never touches
// the shared walker.
func TestStorageUntranslatedSkipsWalks(t *testing.T) {
	s := runStorage(t, core.Off, 8)
	if s.Blocks() == 0 {
		t.Fatal("untranslated storage issued no blocks")
	}
}

func TestStorageAttachRejectsZeroRate(t *testing.T) {
	h, err := host.New(host.Config{Mode: core.FNS})
	if err != nil {
		t.Fatal(err)
	}
	s := device.NewStorage(device.StorageConfig{Name: "bad"})
	if err := h.AttachDevice(s); err == nil || !strings.Contains(err.Error(), "ReadGBps") {
		t.Fatalf("Attach with zero ReadGBps: err = %v", err)
	}
}

func TestNewStorageDefaults(t *testing.T) {
	s := device.NewStorage(device.StorageConfig{ReadGBps: 1})
	if s.Name() != "storage" {
		t.Fatalf("default name = %q", s.Name())
	}
	if s.Domain() != nil {
		t.Fatal("domain must be nil before Attach")
	}
}
