package host

import (
	"fmt"

	"fastsafe/internal/device"
)

// Storage-device co-tenancy. The NVMe-style controller itself lives in
// internal/device (it is the second reference implementation of
// device.Device); this file is the host-side attachment glue: core and
// seed slot assignment and mode inheritance.

// InstallStorage attaches a storage device sharing the IOMMU. Call
// before Start. New installs the devices the Topology config declares;
// this entry point adds more afterwards. Storage device i runs its
// driver on core Cores+TxFlows+1+i with domain seed offset 1000+i —
// slot 0 matches the pre-device-layer layout bit-for-bit.
func (h *Host) InstallStorage(spec StorageSpec) (*device.Storage, error) {
	mode := h.cfg.Mode
	if spec.Mode != nil {
		mode = *spec.Mode
	}
	i := h.storageCount
	s := device.NewStorage(device.StorageConfig{
		Name:       fmt.Sprintf("storage%d", i),
		ReadGBps:   spec.ReadGBps,
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
