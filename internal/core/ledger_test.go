package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fastsafe/internal/ats"
	"fastsafe/internal/fault"
	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// ledgerVariants are the attachments every mode runs the ledger script
// under: the bare IOMMU, an 8-entry device ATC (capability domains never
// attach one), and a fault injector whose invalidation drops and delays
// and allocator failures fire within a short script.
var ledgerVariants = []struct {
	name   string
	atc    int
	faults bool
}{
	{"plain", 0, false},
	{"atc8", 8, false},
	{"faults", 0, true},
}

// TestGoldenPolicyLedger locks the per-operation behaviour of every
// protection mode: the cost and IOVAs of each map, unmap and remap, what
// each translation returns (including after an unmap, where the weak
// modes serve stale), the batch flushes, a runtime mode switch with
// descriptors and packets in flight, and the final domain, IOMMU,
// allocator, ATC and fault counters. Only integers, bools and addresses
// are printed and nothing ranges over a map, so the ledger is the same
// under every Go release. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/core -run Golden.
func TestGoldenPolicyLedger(t *testing.T) {
	var b strings.Builder
	for _, name := range ValidModeNames() {
		m, err := ParseMode(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ledgerVariants {
			fmt.Fprintf(&b, "== %s %s\n", name, v.name)
			runLedger(t, &b, m, v.atc, v.faults)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "golden", "ledger.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("ledger diverged at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("ledger diverged in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// ledger writes one domain's script results.
type ledger struct {
	t *testing.T
	w *strings.Builder
	d *Domain
}

// op records one driver operation's cost and, when given, its IOVAs.
func (l *ledger) op(name string, cost sim.Duration, err error, iovas []ptable.IOVA) {
	l.t.Helper()
	if err != nil {
		l.t.Fatalf("%v: %s: %v", l.d.Mode(), name, err)
	}
	fmt.Fprintf(l.w, "%s cost=%d", name, int64(cost))
	for _, v := range iovas {
		fmt.Fprintf(l.w, " %#x", uint64(v))
	}
	fmt.Fprintln(l.w)
}

// translate records one DMA translation of v; with the IOMMU off there
// is nothing to translate.
func (l *ledger) translate(name string, v ptable.IOVA) {
	if !l.d.Mode().Translated() {
		return
	}
	tr := l.d.Translate(v)
	by := tr.Served()
	fmt.Fprintf(l.w, "  %s %#x -> phys=%#x ok=%t iotlb=%t reads=%d stale=%t atc=%t cap=%t\n",
		name, uint64(v), uint64(tr.Phys), tr.OK(), by == iommu.ByIOTLB || by == iommu.ByIOTLBHuge, tr.MemReads(), tr.Stale(), by == iommu.ByATC, by == iommu.ByCap)
}

// flush records the pending batch and forces its flush.
func (l *ledger) flush() {
	fmt.Fprintf(l.w, "pending=%d\n", l.d.PendingDeferred())
	l.op("flush", l.d.FlushDeferred(), nil, nil)
}

// switchTarget is the first mode after m in ValidModeNames order (with
// wrap-around) that m may switch to at runtime.
func switchTarget(m Mode) (Mode, bool) {
	names := ValidModeNames()
	at := 0
	for i, n := range names {
		if n == m.String() {
			at = i
		}
	}
	for k := 1; k < len(names); k++ {
		to, _ := ParseMode(names[(at+k)%len(names)])
		if CanSwitch(m, to) == nil {
			return to, true
		}
	}
	return m, false
}

// runLedger drives one fixed script against a small domain in mode m.
func runLedger(t *testing.T, w *strings.Builder, m Mode, atcEntries int, faults bool) {
	t.Helper()
	cfg := Config{
		Mode: m, NumCPUs: 3, DescriptorPages: 4, DeferredLimit: 6,
		TxFreeCPUShift: 1, FreePoolSize: 5, Seed: 7,
		ATS: ats.Config{Entries: atcEntries},
	}
	var inj *fault.Injector
	if faults {
		inj = fault.NewInjector(sim.NewEngine(1),
			fault.Plan{InvDrop: 0.3, InvDelay: 0.3, AllocFail: 0.3}, 3)
		cfg.Faults = inj
	}
	d, err := NewDomain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &ledger{t: t, w: w, d: d}
	ring, err := d.MapPersistentPages(0, 2)
	l.op("ring", 0, err, ring)

	// Rx descriptors across the CPUs, then a DMA into each one's first
	// and last page.
	var rx []*Descriptor
	for i := 0; i < 6; i++ {
		desc, cost, err := d.MapRxDescriptor(i % 3)
		l.op(fmt.Sprintf("rx%d map cpu%d", i, i%3), cost, err, desc.IOVAs)
		rx = append(rx, desc)
	}
	for i, desc := range rx {
		l.translate(fmt.Sprintf("rx%d[0]", i), desc.IOVAs[0])
		l.translate(fmt.Sprintf("rx%d[3]", i), desc.IOVAs[3])
	}

	// Tx packets of 1-3 pages; cpu0's second and third packets and
	// cpu1's third cross a 4-page chunk boundary.
	txs := []struct{ cpu, pages int }{{0, 3}, {0, 2}, {1, 1}, {1, 3}, {1, 2}, {2, 2}, {0, 3}}
	var tx []*TxMapping
	var txIOVAs [][]ptable.IOVA // copies: a record is dead once unmapped
	for i, p := range txs {
		mp, cost, err := d.MapTx(p.cpu, p.pages)
		l.op(fmt.Sprintf("tx%d map cpu%d", i, p.cpu), cost, err, mp.IOVAs)
		l.translate(fmt.Sprintf("tx%d[last]", i), mp.IOVAs[len(mp.IOVAs)-1])
		tx = append(tx, mp)
		txIOVAs = append(txIOVAs, slices.Clone(mp.IOVAs))
	}
	l.translate("rx1[0] again", rx[1].IOVAs[0])

	// Completions out of order; a DMA right after each unmap shows who
	// still serves the old page.
	for _, i := range []int{3, 0, 5} {
		cost, err := d.UnmapRxDescriptor(rx[i])
		l.op(fmt.Sprintf("rx%d unmap", i), cost, err, nil)
		l.translate(fmt.Sprintf("rx%d[0] after unmap", i), rx[i].IOVAs[0])
	}
	for _, i := range []int{1, 4, 0, 6} {
		cost, err := d.UnmapTx(tx[i])
		l.op(fmt.Sprintf("tx%d unmap", i), cost, err, nil)
		l.translate(fmt.Sprintf("tx%d[last] after unmap", i), txIOVAs[i][len(txIOVAs[i])-1])
	}

	// Window rotation on two live descriptors.
	for _, i := range []int{1, 4} {
		cost, err := d.RemapRxDescriptor(rx[i])
		l.op(fmt.Sprintf("rx%d remap", i), cost, err, rx[i].IOVAs)
		l.translate(fmt.Sprintf("rx%d[0]", i), rx[i].IOVAs[0])
		l.translate(fmt.Sprintf("rx%d[2]", i), rx[i].IOVAs[2])
	}
	l.flush()
	l.translate("rx5[0] after flush", rx[5].IOVAs[0])
	l.translate("tx0[last] after flush", txIOVAs[0][2])

	// A runtime switch with rx1, rx2, rx4, tx2, tx3 and tx5 in flight:
	// each completes under the mode that mapped it.
	if to, ok := switchTarget(m); ok {
		cost, err := d.SetKnobs(Knobs{Mode: to, DeferredLimit: 6, FlushInterval: DefaultFlushInterval})
		l.op("switch to "+to.String(), cost, err, nil)
	} else {
		fmt.Fprintln(w, "no switch")
	}
	nrx, cost, err := d.MapRxDescriptor(1)
	l.op("rx6 map cpu1", cost, err, nrx.IOVAs)
	l.translate("rx6[1]", nrx.IOVAs[1])
	ntx, cost, err := d.MapTx(0, 2)
	l.op("tx7 map cpu0", cost, err, ntx.IOVAs)
	l.translate("tx7[0]", ntx.IOVAs[0])
	ntxIOVAs := slices.Clone(ntx.IOVAs)
	for _, i := range []int{2, 1, 4} {
		cost, err := d.UnmapRxDescriptor(rx[i])
		l.op(fmt.Sprintf("rx%d unmap", i), cost, err, nil)
	}
	cost, err = d.UnmapRxDescriptor(nrx)
	l.op("rx6 unmap", cost, err, nil)
	for _, i := range []int{5, 2, 3} {
		cost, err := d.UnmapTx(tx[i])
		l.op(fmt.Sprintf("tx%d unmap", i), cost, err, nil)
	}
	cost, err = d.UnmapTx(ntx)
	l.op("tx7 unmap", cost, err, nil)
	l.translate("rx2[0] after unmap", rx[2].IOVAs[0])
	l.translate("tx7[1] after unmap", ntxIOVAs[1])
	l.flush()

	c := d.Counters()
	fmt.Fprintf(w, "domain mode=%v rx=%d/%d tx=%d/%d pages=%d/%d iova=%d/%d inv=%d flushes=%d reclaims=%d cpu=%d\n",
		d.Mode(), c.RxDescriptorsMapped, c.RxDescriptorsUnmapped, c.TxPacketsMapped, c.TxPacketsUnmapped,
		c.PagesMapped, c.PagesUnmapped, c.IOVAAllocs, c.IOVAFrees, c.InvRequests, c.DeferredFlushes,
		c.Reclaims, int64(c.CPUTime))
	fmt.Fprintf(w, "iommu %+v\n", d.mmu.CountersOf(d.ID()))
	fmt.Fprintf(w, "alloc %+v\n", d.AllocatorStats())
	if atc := d.ATC(); atc != nil {
		r := stats.NewRegistry()
		atc.RegisterProbes(r, "")
		occupancy, _ := r.Value("occupancy")
		fmt.Fprintf(w, "atc %+v len=%d\n", atc.Counters(), int(occupancy))
	}
	if ct := d.caps; ct != nil {
		fmt.Fprintf(w, "caps len=%d\n", ct.Len())
	}
	if inj != nil {
		fmt.Fprintf(w, "faults %+v\n", inj.Counters())
	}
}
