package nic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fastsafe/internal/ats"
	"fastsafe/internal/core"
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
)

// batchTwin is one of two identical domains an Rx batch is translated
// in, with every audited translation logged in order.
type batchTwin struct {
	mmu   *iommu.IOMMU
	dom   *core.Domain
	descs []*core.Descriptor // mapped descriptors, then unmapped ones
	log   []string
}

func newBatchTwin(t *testing.T, cfg core.Config, geometry iommu.Config, descs int) *batchTwin {
	t.Helper()
	mmu := iommu.New(geometry)
	cfg.SharedIOMMU, cfg.DefaultDomain = mmu, true
	dom, err := core.NewDomain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &batchTwin{mmu: mmu, dom: dom}
	mmu.SetAuditHook(func(_ iommu.DomainID, v ptable.IOVA, tr iommu.Translation) {
		w.log = append(w.log, fmt.Sprintf("iommu %#x %v", uint64(v), tr))
	})
	if atc := dom.ATC(); atc != nil {
		atc.SetAuditHook(func(v ptable.IOVA, tr iommu.Translation) {
			w.log = append(w.log, fmt.Sprintf("atc %#x %v", uint64(v), tr))
		})
	}
	for i := 0; i < 2*descs; i++ {
		desc, _, err := dom.MapRxDescriptor(0)
		if err != nil {
			t.Fatal(err)
		}
		w.descs = append(w.descs, desc)
	}
	return w
}

// remap unmaps mapped descriptor i, keeps it as unmapped descriptor j,
// and maps a fresh one in its place. A batch that still targets the
// unmapped one faults, or in deferred modes hits stale IOTLB entries.
func (w *batchTwin) remap(t *testing.T, i, j int) {
	t.Helper()
	if _, err := w.dom.UnmapRxDescriptor(w.descs[i]); err != nil {
		t.Fatal(err)
	}
	desc, _, err := w.dom.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	w.descs[i], w.descs[j] = desc, w.descs[i]
}

// roundRobin is the reference the Rx path must match: the batch's
// transactions round-robin, one Translate each, the way they
// interleave on the wire.
func roundRobin(dom *core.Domain, batch []rxClaim, reads []int) {
	for off := 0; ; off += mps {
		progress := false
		for i, p := range batch {
			if off >= p.pkt.Bytes+headerBytes {
				continue
			}
			progress = true
			b := p.start + off
			reads[i] += dom.Translate(p.desc.IOVAs[b/ptable.PageSize] + ptable.IOVA(b%ptable.PageSize)).MemReads()
		}
		if !progress {
			return
		}
	}
}

// TestRxBatchMatchesRoundRobin: the Rx path's batch translation — round
// robin while two DMAs have transactions left, then the last DMA's rest
// as runs — has the effects of one Translate per transaction in round
// robin: the same reads per DMA, IOMMU and ATC counters, and audit
// calls in the same order. A one-entry IOTLB makes any reordering of
// two pages' transactions change hits.
func TestRxBatchMatchesRoundRobin(t *testing.T) {
	tiny := iommu.Config{IOTLBSets: 1, IOTLBWays: 1, L1Size: 2, L2Size: 2, L3Size: 2}
	var reach iommu.Counters
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"strict", core.Config{Mode: core.Strict}},
		{"deferred", core.Config{Mode: core.Deferred}},
		{"fns", core.Config{Mode: core.FNS}},
		{"fns-ats", core.Config{Mode: core.FNS, ATS: ats.Config{Entries: 2}}},
		{"cap", core.Config{Mode: core.Cap}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NumCPUs, cfg.DescriptorPages = 1, 4
			const descs = 4 // mapped, and as many unmapped
			a, b := newBatchTwin(t, cfg, tiny, descs), newBatchTwin(t, cfg, tiny, descs)
			n := &NIC{cfg: Config{}.withDefaults(), dom: a.dom}
			descBytes := cfg.DescriptorPages * ptable.PageSize
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 400; round++ {
				if rng.Intn(8) == 0 {
					i, j := rng.Intn(descs), descs+rng.Intn(descs)
					a.remap(t, i, j)
					b.remap(t, i, j)
				}
				size := 1 + rng.Intn(rxPipeline)
				batchA, batchB := make([]rxClaim, size), make([]rxClaim, size)
				for j := range batchA {
					pkt := Packet{Bytes: 64 + rng.Intn(n.cfg.MTU-64+1)}
					d := rng.Intn(2 * descs)
					start := rng.Intn(descBytes - pkt.Bytes - headerBytes + 1)
					batchA[j] = rxClaim{pkt: pkt, desc: &rxDesc{Descriptor: a.descs[d]}, start: start}
					batchB[j] = rxClaim{pkt: pkt, desc: &rxDesc{Descriptor: b.descs[d]}, start: start}
				}
				loggedA, loggedB := len(a.log), len(b.log)
				readsA, readsB := make([]int, size), make([]int, size)
				n.translateBatch(batchA, readsA)
				roundRobin(b.dom, batchB, readsB)
				what := fmt.Sprintf("round %d, batch of %d", round, size)
				if !reflect.DeepEqual(readsA, readsB) {
					t.Fatalf("%s: reads per DMA %v, round robin %v", what, readsA, readsB)
				}
				if ca, cb := a.mmu.Counters(), b.mmu.Counters(); ca != cb {
					t.Fatalf("%s: IOMMU counters %+v, round robin %+v", what, ca, cb)
				}
				if a.dom.ATC() != nil && a.dom.ATC().Counters() != b.dom.ATC().Counters() {
					t.Fatalf("%s: ATC counters %+v, round robin %+v", what, a.dom.ATC().Counters(), b.dom.ATC().Counters())
				}
				if !reflect.DeepEqual(a.log, b.log) {
					t.Fatalf("%s: audit calls\n%v\nround robin\n%v", what, a.log[loggedA:], b.log[loggedB:])
				}
			}
			c := a.mmu.Counters()
			reach.IOTLBHits += c.IOTLBHits
			reach.Faults += c.Faults
			reach.CapChecks += c.CapChecks
		})
	}
	if reach.IOTLBHits == 0 || reach.Faults == 0 || reach.CapChecks == 0 {
		t.Fatalf("batches reach %+v: want IOTLB hits, faults and capability checks", reach)
	}
}
