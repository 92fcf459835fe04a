package ats

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastsafe/internal/iommu"
	"fastsafe/internal/ptable"
)

// FuzzATC decodes a byte stream into page-table and translation
// operations and applies them to four worlds, each an IOMMU with one
// domain. Worlds A and B put an ATC of 1-16 entries in front of it and
// differ only in how they translate a run of transactions inside one
// page: world A calls TranslateRun, world B calls Translate once per
// transaction. Worlds C and D have no ATC: world C calls the domain's
// direct TranslateRun, world D calls TranslateIn once per transaction.
// After every operation each pair must agree on every counter, the
// reads returned and the calls their audit hooks saw, and A and B on
// the ATC's size.
//
// Two oracles check world A besides: every hit's Stale must equal a
// fresh walk's verdict, and every hit must serve a page filled since
// its last invalidation, at the address that fill returned.
//
// The seed corpus, testdata/fuzz/FuzzATC, is atcSeeds encoded.
func FuzzATC(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runATCOps(t, data) })
}

// The operations a FuzzATC input encodes, three bytes each: the
// operation, a page selector and an argument. A selector's low three
// bits pick one of four pages at the start of one of two 2MB regions;
// its high five bits shift where a run starts in the page.
const (
	opMap           = iota // map the page, phys picked by the argument
	opUnmap                // unmap the page
	opUnmapSpan            // fill the region with 4KB pages, unmap it whole: reclaims its PT-L4 page
	opMapHuge              // map the region as a 2MB leaf
	opUnmapHuge            // unmap the region's 2MB leaf
	opRepoint              // unmap the page and map it elsewhere, no shootdown
	opInvalidate           // Invalidate 1-8 pages from the page, either iotlbOnly
	opInvalidateAll        // InvalidateAll
	opTranslate            // Translate one IOVA in the page
	opRun                  // a run of 1-8 transactions 512 bytes apart in the page
	numOps
)

const runStride = 512

// maxATCOps bounds one input's operations. A span unmap maps up to 512
// pages first, so a long input is slow to run, and slower still for the
// fuzzer to minimise (its cost grows with the input's square).
const maxATCOps = 64

var atcRegions = [2]ptable.IOVA{ptable.IOVA(ptable.HugeSize), ptable.IOVA(2 * ptable.HugeSize)}

// regionPhys is where the region's pages map by default: page i of the
// region at regionPhys+i*4KB, so a 2MB leaf at regionPhys maps each
// page's first byte where its 4KB mapping did and every later byte
// elsewhere. alt > 0 picks a distinct address.
func regionPhys(r, alt int) ptable.Phys {
	return ptable.Phys(r+1)<<30 + ptable.Phys(alt)<<34
}

func atcPage(sel byte) (r int, v ptable.IOVA) {
	r = int(sel & 1)
	return r, atcRegions[r] + ptable.IOVA(int(sel>>1&3)*ptable.PageSize)
}

type atcEvent struct {
	atc bool // seen by the ATC's hook (a hit), not the IOMMU's
	v   ptable.IOVA
	t   iommu.Translation
}

// atcFill is what a miss cached, as the oracle records it.
type atcFill struct {
	base ptable.Phys // the page's base, as the ATC computes it
	huge bool
}

type atcWorld struct {
	m     *iommu.IOMMU
	d     iommu.DomainID
	tb    *ptable.Table
	a     *Cache           // nil in the worlds without an ATC
	tr    iommu.Translator // a, or the domain's direct path
	log   []atcEvent
	fills map[ptable.IOVA]atcFill
}

// atcReach counts the cases a corpus must reach to mean anything.
type atcReach struct {
	hits, staleHits, faults int
	// deadUnderHuge counts run transactions after the first served by
	// a 4KB entry whose page now sits under a 2MB leaf: the case where
	// staleness must be found per transaction.
	deadUnderHuge int
	// staleFills counts ATC misses the IOMMU served from a stale IOTLB
	// entry while a live leaf maps the page: the fills that must walk,
	// as the stale hit hands over no leaf.
	staleFills int
	// The direct run's transactions after the first, by what served
	// them: stale 4KB and 2MB IOTLB entries, fresh 2MB entries, and
	// faults (each asking again).
	runStale4K, runStale2M, runHuge, runFaults int
}

// newDirectWorld is a world without an ATC: its translations go
// straight to the domain's IOMMU path.
func newDirectWorld() *atcWorld {
	m := iommu.New(iommu.Config{})
	d := m.CreateDomain()
	w := &atcWorld{m: m, d: d, tb: m.TableOf(d), tr: m.TranslatorOf(d)}
	m.SetAuditHook(func(_ iommu.DomainID, v ptable.IOVA, tr iommu.Translation) {
		w.log = append(w.log, atcEvent{false, v, tr})
	})
	return w
}

func newATCWorld(t *testing.T, entries int, reach *atcReach) *atcWorld {
	m := iommu.New(iommu.Config{})
	d := m.CreateDomain()
	w := &atcWorld{m: m, d: d, tb: m.TableOf(d), fills: map[ptable.IOVA]atcFill{}}
	w.a = New(m, d, m.TranslatorOf(d), Config{Entries: entries})
	w.tr = w.a
	m.SetAuditHook(func(_ iommu.DomainID, v ptable.IOVA, tr iommu.Translation) {
		w.log = append(w.log, atcEvent{false, v, tr})
		if !tr.OK() {
			if reach != nil {
				reach.faults++
			}
			return
		}
		if _, _, live := w.tb.LookupHugeAware(v); reach != nil && tr.Stale() && live {
			reach.staleFills++
		}
		// The ATC caches this completion; record what it should serve.
		_, huge, _ := w.tb.LookupHugeAware(v)
		base := tr.Phys
		if huge {
			base -= ptable.Phys(v - v.AlignDown())
		}
		w.fills[v.AlignDown()] = atcFill{base, huge}
	})
	w.a.SetAuditHook(func(v ptable.IOVA, tr iommu.Translation) {
		w.log = append(w.log, atcEvent{true, v, tr})
		if reach == nil {
			return
		}
		reach.hits++
		f, ok := w.fills[v.AlignDown()]
		if !ok {
			t.Fatalf("hit on %v, a page not filled since its last invalidation", v)
		}
		want := f.base
		if f.huge {
			want += ptable.Phys(v - v.AlignDown())
		}
		if !tr.OK() || tr.Served() != iommu.ByATC || tr.Phys != want {
			t.Fatalf("hit on %v: %+v, want Phys %#x", v, tr, uint64(want))
		}
		lw, _, mapped := w.tb.LookupHugeAware(v)
		if stale := !mapped || lw.Phys != tr.Phys; tr.Stale() != stale {
			t.Fatalf("hit on %v: Stale %v, the live table says %v", v, tr.Stale(), stale)
		}
		if tr.Stale() {
			reach.staleHits++
		}
	})
	return w
}

// mutate applies a page-table operation. Errors (a page already
// mapped, a span not wholly mapped, a 4KB page inside a 2MB leaf) leave
// the table as it was, the same in both worlds.
func (w *atcWorld) mutate(op int, r int, v ptable.IOVA, arg byte) {
	alt := int(arg % 3)
	own := regionPhys(r, alt) + ptable.Phys(v-atcRegions[r])
	switch op {
	case opMap:
		_ = w.tb.Map(v, own)
	case opUnmap:
		_, _ = w.tb.Unmap(v, ptable.PageSize)
	case opUnmapSpan:
		if w.tb.HugeMapped(atcRegions[r]) {
			return
		}
		for i := 0; i < ptable.EntriesPerPage; i++ {
			if p := atcRegions[r] + ptable.IOVA(i*ptable.PageSize); !w.tb.Mapped(p) {
				_ = w.tb.Map(p, regionPhys(r, 0)+ptable.Phys(i*ptable.PageSize))
			}
		}
		_, _ = w.tb.Unmap(atcRegions[r], ptable.HugeSize)
	case opMapHuge:
		_ = w.tb.MapHuge(atcRegions[r], regionPhys(r, alt))
	case opUnmapHuge:
		_ = w.tb.UnmapHuge(atcRegions[r])
	case opRepoint:
		if _, err := w.tb.Unmap(v, ptable.PageSize); err == nil {
			_ = w.tb.Map(v, regionPhys(r, 1+int(arg%2))+ptable.Phys(v-atcRegions[r]))
		}
	case opInvalidate:
		pages := 1 + int(arg%8)
		w.tr.Invalidate(v, pages, arg&8 != 0)
		for i := 0; i < pages; i++ {
			delete(w.fills, v+ptable.IOVA(i*ptable.PageSize))
		}
	case opInvalidateAll:
		w.tr.InvalidateAll()
		clear(w.fills)
	}
}

// runATCOps applies data to the four worlds, failing t on any
// divergence within a pair, and reports what the stream reached.
func runATCOps(t *testing.T, data []byte) atcReach {
	var reach atcReach
	if len(data) == 0 {
		return reach
	}
	entries := 1 + int(data[0]%16)
	a := newATCWorld(t, entries, &reach)
	b := newATCWorld(t, entries, nil)
	c, d := newDirectWorld(), newDirectWorld()
	ops := data[1:]
	if len(ops) > 3*maxATCOps {
		ops = ops[:3*maxATCOps]
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, arg := int(ops[i]%numOps), ops[i+2]
		r, v := atcPage(ops[i+1])
		loggedAB, loggedCD := len(a.log), len(c.log)
		var readsA, readsB, readsC, readsD int
		switch op {
		case opTranslate:
			u := v + ptable.IOVA(int(arg)*16)
			ta, tb := a.a.Translate(u), b.a.Translate(u)
			if ta != tb {
				t.Fatalf("op %d: Translate(%v) = %v, twin %v", i/3, u, ta, tb)
			}
			tc, td := c.tr.Translate(u), d.m.TranslateIn(d.d, u)
			if tc != td {
				t.Fatalf("op %d: direct Translate(%v) = %v, TranslateIn %v", i/3, u, tc, td)
			}
		case opRun:
			n := 1 + int(arg%8)
			// Start anywhere that keeps the last transaction in the page.
			u := v + ptable.IOVA(int(arg/8)%(9-n)*runStride+int(ops[i+1]>>3)*8)
			var underHuge bool
			if n > 1 {
				e := a.a.entries[v]
				underHuge = e != nil && !e.huge && !e.leaf.Live() && a.tb.HugeMapped(v)
			}
			readsA = a.a.TranslateRun(u, n, runStride)
			readsC = c.tr.TranslateRun(u, n, runStride)
			for j := 0; j < n; j++ {
				readsB += b.a.Translate(u + ptable.IOVA(j*runStride)).MemReads()
				readsD += d.m.TranslateIn(d.d, u+ptable.IOVA(j*runStride)).MemReads()
			}
			if underHuge {
				reach.deadUnderHuge += n - 1
			}
			for _, e := range c.log[loggedCD+1:] {
				switch tr := e.t; {
				case !tr.OK():
					reach.runFaults++
				case tr.Served() == iommu.ByIOTLB && tr.Stale():
					reach.runStale4K++
				case tr.Served() == iommu.ByIOTLBHuge && tr.Stale():
					reach.runStale2M++
				case tr.Served() == iommu.ByIOTLBHuge:
					reach.runHuge++
				}
			}
		default:
			for _, w := range []*atcWorld{a, b, c, d} {
				w.mutate(op, r, v, arg)
			}
		}
		if readsA != readsB {
			t.Fatalf("op %d: run read %d, %d Translates read %d", i/3, readsA, int(arg%8)+1, readsB)
		}
		if readsC != readsD {
			t.Fatalf("op %d: direct run read %d, %d TranslateIns read %d", i/3, readsC, int(arg%8)+1, readsD)
		}
		if ca, cb := a.a.Counters(), b.a.Counters(); ca != cb {
			t.Fatalf("op %d (%d): ATC counters %+v, twin %+v", i/3, op, ca, cb)
		}
		if a.a.Len() != b.a.Len() || a.a.Len() > entries {
			t.Fatalf("op %d (%d): ATC holds %d entries, twin %d, capacity %d", i/3, op, a.a.Len(), b.a.Len(), entries)
		}
		for _, pair := range []struct {
			x, y   *atcWorld
			logged int
		}{{a, b, loggedAB}, {c, d, loggedCD}} {
			x, y, logged := pair.x, pair.y, pair.logged
			if cx, cy := x.m.Counters(), y.m.Counters(); cx != cy {
				t.Fatalf("op %d (%d): IOMMU counters %+v, twin %+v", i/3, op, cx, cy)
			}
			if len(x.log) != len(y.log) {
				t.Fatalf("op %d (%d): audit hooks saw %d calls, twin %d", i/3, op, len(x.log)-logged, len(y.log)-logged)
			}
			for j := logged; j < len(x.log); j++ {
				if x.log[j] != y.log[j] {
					t.Fatalf("op %d (%d): audit call %d = %+v, twin %+v", i/3, op, j-logged, x.log[j], y.log[j])
				}
			}
		}
	}
	return reach
}

// atcOps encodes a FuzzATC input: an entry count, then (op, page
// selector, argument) triples.
func atcOps(entries byte, ops ...byte) []byte { return append([]byte{entries - 1}, ops...) }

// Page selectors: region 0's pages 0-3, then region 1's.
const (
	pgA0, pgA1, pgA2, pgA3 byte = 0, 2, 4, 6
	pgB0, pgB1, pgB2, pgB3 byte = 1, 3, 5, 7
)

// atcSeeds is the committed corpus (testdata/fuzz/FuzzATC) before
// encoding: each seed walks one path through the run and the leaf check.
var atcSeeds = []struct {
	name string
	data []byte
}{
	// A 4KB entry whose region is reclaimed and mapped again as a 2MB
	// leaf at the same base, with no shootdown: a run from offset 0 is
	// fresh on its first transaction and stale on the rest.
	{"dead_leaf_under_huge", atcOps(8,
		opMap, pgA2, 0, opMap, pgA3, 0, opTranslate, pgA2, 0, opTranslate, pgA3, 40,
		opUnmapSpan, pgA0, 0, opMapHuge, pgA0, 0,
		opRun, pgA2, 7, opRun, pgA3, 3, opRun, pgA2, 0, opTranslate, pgA2, 32)},
	// Re-pointed and unmapped pages under live and dead leaves.
	{"repoint_then_runs", atcOps(4,
		opMap, pgB0, 0, opMap, pgB1, 0, opRun, pgB0, 4, opRun, pgB1, 12,
		opRepoint, pgB0, 1, opRun, pgB0, 5, opUnmap, pgB1, 0, opRun, pgB1, 21,
		opMap, pgB1, 0, opRun, pgB1, 2, opInvalidate, pgB0, 9, opRun, pgB0, 7)},
	// 2MB leaves: fill, unmap, map elsewhere, map back.
	{"huge_runs", atcOps(16,
		opMapHuge, pgB0, 0, opRun, pgB2, 7, opRun, pgB3, 30, opUnmapHuge, pgB0, 0,
		opRun, pgB2, 5, opMapHuge, pgB0, 1, opRun, pgB2, 6, opUnmapHuge, pgB0, 0,
		opMapHuge, pgB0, 0, opRun, pgB3, 7, opInvalidateAll, 0, 0, opRun, pgB3, 1)},
	// Faulting first transactions: nothing is cached, each asks again.
	{"faulting_runs", atcOps(2,
		opRun, pgA1, 7, opTranslate, pgA1, 0, opMap, pgA1, 0, opRun, pgA1, 7,
		opUnmap, pgA1, 0, opRun, pgA1, 3)},
	// A 4KB IOTLB entry outlives the ATC entry it filled and its page
	// is mapped again under a 2MB leaf: the next miss is a stale IOTLB
	// hit, which hands over no leaf, so the fill must walk to find the
	// 2MB leaf and cache a 2MB entry.
	{"stale_fill_under_huge", atcOps(1,
		opMap, pgA2, 0, opTranslate, pgA2, 0, opMap, pgB0, 0, opTranslate, pgB0, 0,
		opUnmapSpan, pgA0, 0, opMapHuge, pgA0, 0, opRun, pgA2, 11, opTranslate, pgA2, 40,
		opRun, pgB0, 7)},
	// One entry: every other run evicts, and the head check must not
	// serve an entry an invalidation removed.
	{"one_entry", atcOps(1,
		opMap, pgA0, 0, opMap, pgB0, 0, opRun, pgA0, 7, opRun, pgB0, 7,
		opRun, pgB0, 3, opInvalidate, pgB0, 0, opRun, pgB0, 2, opRun, pgA0, 1,
		opInvalidateAll, 0, 0, opTranslate, pgA0, 0, opRun, pgA0, 6)},
}

// TestFuzzATCCorpus: the committed corpus is atcSeeds encoded, and the
// seeds reach hits, stale hits, faults, the per-transaction fallback
// under a 2MB leaf, fills after a stale IOTLB hit, and direct runs on
// every kind of entry, so replaying the corpus (plain go test) checks
// every path a run has.
func TestFuzzATCCorpus(t *testing.T) {
	var total atcReach
	for _, seed := range atcSeeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzATC", seed.name))
		if err != nil || string(got) != want {
			t.Errorf("testdata/fuzz/FuzzATC/%s must hold\n%s(read error: %v)", seed.name, want, err)
		}
		r := runATCOps(t, seed.data)
		if r.hits == 0 {
			t.Errorf("seed %s reaches no hit", seed.name)
		}
		total.staleHits += r.staleHits
		total.faults += r.faults
		total.deadUnderHuge += r.deadUnderHuge
		total.staleFills += r.staleFills
		total.runStale4K += r.runStale4K
		total.runStale2M += r.runStale2M
		total.runHuge += r.runHuge
		total.runFaults += r.runFaults
	}
	if total.staleHits == 0 || total.faults == 0 || total.deadUnderHuge == 0 || total.staleFills == 0 {
		t.Fatalf("seeds reach %+v: want stale hits, faults, the per-transaction fallback and fills after a stale IOTLB hit", total)
	}
	if total.runStale4K == 0 || total.runStale2M == 0 || total.runHuge == 0 || total.runFaults == 0 {
		t.Fatalf("seeds reach %+v: want direct runs on stale 4KB and 2MB entries, on 2MB entries, and after a fault", total)
	}
}
