package device_test

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/host"
	"fastsafe/internal/race"
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

// TestStorageBlockCycleAllocs: once warm, a storage block — map, DMA,
// completion and unmap — allocates nothing, in the modes the storage
// figures run. Each stage is bound once at attach and each block's
// mapping rides the device's FIFO queues and the domain's recycled Tx
// records.
func TestStorageBlockCycleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, mode := range []core.Mode{core.Strict, core.Deferred, core.FNS, core.Off} {
		h, err := host.New(host.Config{Mode: mode, RxFlows: -1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.InstallStorage(host.StorageSpec{ReadGBps: 8})
		if err != nil {
			t.Fatal(err)
		}
		h.Start()
		eng := h.Engine()
		eng.Run(sim.Millisecond)
		// 128KB at 8GB/s: one block every 16.384us.
		const runs, interval = 200, 16384
		b0 := s.Blocks()
		n := testing.AllocsPerRun(runs, func() { eng.Run(eng.Now() + interval) })
		if got := s.Blocks() - b0; got < runs {
			t.Fatalf("%v: %d blocks in %d intervals", mode, got, runs+1)
		}
		if n != 0 {
			t.Errorf("%v: %v allocs a block, want 0", mode, n)
		}
	}
}
