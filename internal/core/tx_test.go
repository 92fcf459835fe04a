package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fastsafe/internal/ptable"
	"fastsafe/internal/race"
)

// registeredModes returns every mode with a row in the policy table.
func registeredModes() []Mode {
	var out []Mode
	for m, p := range policies {
		if p != nil {
			out = append(out, Mode(m))
		}
	}
	return out
}

// TestUnmapTxTwiceIsAnError: in every layout a second UnmapTx of one
// mapping is a core error that changes nothing, so the next packets get
// records and IOVAs of their own. A Persistent-mode double unmap used to
// put the page on its CPU's pool twice, handing one IOVA to two packets.
func TestUnmapTxTwiceIsAnError(t *testing.T) {
	for _, mode := range registeredModes() {
		d := newDomain(t, mode)
		m, _, err := d.MapTx(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.UnmapTx(m); err != nil {
			t.Fatalf("%v: first UnmapTx: %v", mode, err)
		}
		before, free := d.Counters(), len(d.freeTx)
		cost, err := d.UnmapTx(m)
		if !errors.Is(err, errTxUnmapped) || !strings.HasPrefix(err.Error(), "core: ") {
			t.Fatalf("%v: second UnmapTx: err = %v, want the core error for a dead record", mode, err)
		}
		if cost != 0 || d.Counters() != before || len(d.freeTx) != free {
			t.Fatalf("%v: second UnmapTx cost %v, moved the counters %+v -> %+v or pooled the record again",
				mode, cost, before, d.Counters())
		}
		m1, _, err := d.MapTx(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		v1 := m1.IOVAs[0]
		m2, _, err := d.MapTx(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m1 == m2 || v1 == m2.IOVAs[0] || m1.IOVAs[0] != v1 {
			t.Fatalf("%v: the next two packets alias: records %p %p, IOVAs %#x %#x",
				mode, m1, m2, uint64(m1.IOVAs[0]), uint64(m2.IOVAs[0]))
		}
	}
}

// TestTxMapUnmapNoAllocs: once warm, mapping and unmapping Tx packets
// allocates nothing in any mode — records and chunks come back from the
// domain's free lists, across chunk boundaries and batch flushes.
func TestTxMapUnmapNoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, mode := range registeredModes() {
		d := newDomain(t, mode)
		var ms [3]*TxMapping
		// 24 cycles of a 1-, a 2- and an 8-page packet map 264 pages: more
		// than four 64-page chunks and one 256-page batch, so every run
		// crosses both and AllocsPerRun, which rounds down, sees even one
		// allocation a chunk or a flush.
		run := func() {
			for k := 0; k < 24; k++ {
				for i, pages := range []int{1, 2, 8} {
					m, _, err := d.MapTx(0, pages)
					if err != nil {
						t.Fatal(err)
					}
					ms[i] = m
				}
				for _, m := range ms {
					if _, err := d.UnmapTx(m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		run()
		c := d.Counters()
		if p := d.pol; (p.layout == contig || p.layout == huge) && c.IOVAAllocs < 2 {
			t.Fatalf("%v: the warm-up opened %d Tx chunks, want a boundary crossed", mode, c.IOVAAllocs)
		}
		if d.pol.batched() && c.DeferredFlushes == 0 {
			t.Fatalf("%v: the warm-up flushed no batch", mode)
		}
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%v: %v allocs in 24 cycles of 1-, 2- and 8-page packets, want 0", mode, n)
		}
	}
}

// TestTxRecordsNeverAlias drives random interleavings of MapTx and UnmapTx
// of 1-9 pages over three CPUs, with a runtime mode switch halfway, and
// checks after every operation that no two live packets share a record or
// an IOVA, that no live record changed under its owner, that every live
// page translates, and that no page a strict-safety policy unmapped does.
func TestTxRecordsNeverAlias(t *testing.T) {
	for _, mode := range registeredModes() {
		d := mustDomain(t, Config{
			Mode: mode, NumCPUs: 3, DescriptorPages: 8, DeferredLimit: 16,
			TxFreeCPUShift: 1, FreePoolSize: 5, Seed: 3,
		})
		rng := rand.New(rand.NewSource(int64(mode) + 1))
		type live struct {
			m     *TxMapping
			iovas []ptable.IOVA // copied at map time
		}
		var lives []live
		revoked := map[ptable.IOVA]bool{} // unmapped by a strict-safety policy
		const ops = 600
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				if to, ok := switchTarget(mode); ok {
					if _, err := d.SetMode(to); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(lives) > 0 && (len(lives) >= 12 || rng.Intn(2) == 0) {
				i := rng.Intn(len(lives))
				l := lives[i]
				strict := l.m.pol.StrictSafety()
				if _, err := d.UnmapTx(l.m); err != nil {
					t.Fatalf("%v op %d: UnmapTx: %v", mode, op, err)
				}
				if strict {
					for _, v := range l.iovas {
						revoked[v] = true
					}
				}
				lives[i] = lives[len(lives)-1]
				lives = lives[:len(lives)-1]
			} else {
				m, _, err := d.MapTx(rng.Intn(3), 1+rng.Intn(9))
				if err != nil {
					t.Fatalf("%v op %d: MapTx: %v", mode, op, err)
				}
				for _, v := range m.IOVAs {
					delete(revoked, v)
				}
				lives = append(lives, live{m, append([]ptable.IOVA(nil), m.IOVAs...)})
			}
			records := map[*TxMapping]bool{}
			pages := map[ptable.IOVA]bool{}
			for _, l := range lives {
				if records[l.m] {
					t.Fatalf("%v op %d: two live packets share record %p", mode, op, l.m)
				}
				records[l.m] = true
				if !slices.Equal(l.m.IOVAs, l.iovas) {
					t.Fatalf("%v op %d: a live record changed: IOVAs %v, mapped as %v", mode, op, l.m.IOVAs, l.iovas)
				}
				for _, v := range l.iovas {
					if pages[v] {
						t.Fatalf("%v op %d: two live packets share IOVA %#x", mode, op, uint64(v))
					}
					pages[v] = true
					if d.Mode().Translated() && !d.Translate(v).OK() {
						t.Fatalf("%v op %d: live page %#x does not translate", mode, op, uint64(v))
					}
				}
			}
			for v := range revoked {
				if tr := d.Translate(v); tr.OK() {
					t.Fatalf("%v op %d: page %#x a strict policy unmapped still translates: %+v", mode, op, uint64(v), tr)
				}
			}
		}
	}
}

// BenchmarkTxMapUnmap times one Tx packet's MapTx and UnmapTx on a warm
// domain: per-packet work in strict and deferred, per-chunk IOVA work in
// fns and cap. allocs/op is 0 once the domain's free lists are warm.
func BenchmarkTxMapUnmap(b *testing.B) {
	for _, mode := range []Mode{Strict, Deferred, FNS, Cap} {
		for _, pages := range []int{1, 8} {
			b.Run(fmt.Sprintf("%v/pages=%d", mode, pages), func(b *testing.B) {
				d, err := NewDomain(Config{Mode: mode, NumCPUs: 2, DescriptorPages: 64})
				if err != nil {
					b.Fatal(err)
				}
				cycle := func() {
					m, _, err := d.MapTx(0, pages)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := d.UnmapTx(m); err != nil {
						b.Fatal(err)
					}
				}
				// Past the first chunks and batch flushes, so even a
				// single timed iteration measures a warm domain.
				for i := 0; i < 1024/pages; i++ {
					cycle()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}
