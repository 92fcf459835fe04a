package host

import (
	"fmt"

	"fastsafe/internal/device"
)

// Storage-device co-tenancy. The NVMe-style controller itself lives in
// internal/device (it is the second reference implementation of
// device.Device); this file is the host-side attachment glue: core and
// seed slot assignment, mode inheritance, and the pre-device-layer
// InstallStorage entry point.

// InstallStorage attaches a storage device sharing the IOMMU. Call
// before Start. Devices the Topology config declares are installed by
// New; this entry point adds more afterwards. Panics on a nonsensical
// config (non-positive ReadGBps) — the facade validates before it gets
// here.
func (h *Host) InstallStorage(cfg StorageSpec) *device.Storage {
	s, err := h.addStorage(cfg)
	if err != nil {
		panic(fmt.Sprintf("host: InstallStorage: %v", err))
	}
	return s
}

// addStorage assigns the next storage core/seed slot and attaches the
// device. Storage device i runs its driver on core Cores+TxFlows+1+i
// with domain seed offset 1000+i — slot 0 matches the pre-device-layer
// layout bit-for-bit.
func (h *Host) addStorage(spec StorageSpec) (*device.Storage, error) {
	mode := h.cfg.Mode
	if spec.Mode != nil {
		mode = *spec.Mode
	}
	i := h.storageCount
	s := device.NewStorage(device.StorageConfig{
		Name:       fmt.Sprintf("storage%d", i),
		ReadGBps:   spec.ReadGBps,
		BlockBytes: spec.BlockBytes,
		Mode:       mode,
		CPU:        h.cfg.Cores + h.cfg.TxFlows + 1 + i,
		SeedOffset: 1000 + int64(i),
	})
	if err := h.AttachDevice(s); err != nil {
		return nil, err
	}
	h.storageCount++
	return s, nil
}
