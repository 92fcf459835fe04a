package iommu

import (
	"math/rand"
	"reflect"
	"testing"

	"fastsafe/internal/ptable"
)

// Model-based property test: against any interleaving of map, unmap,
// strict/preserving invalidation and translation, the IOMMU must never
// return a *wrong* address. A translation is either (a) correct per the
// live page table, (b) explicitly flagged Stale (a cached entry for an
// unmapped IOVA — the deferred-mode hole, visible to the caller), or
// (c) a fault. Silent mistranslation — returning mapping X's bytes for
// mapping Y — must be impossible.
func TestPropertyNoSilentMistranslation(t *testing.T) {
	const pages = 64
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{IOTLBSets: 4, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
		// Shadow model of the live mappings.
		shadow := map[ptable.IOVA]ptable.Phys{}
		nextPhys := ptable.Phys(1 << 20)

		for op := 0; op < 4000; op++ {
			v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
			switch rng.Intn(5) {
			case 0: // map
				if _, live := shadow[v]; !live {
					nextPhys += ptable.PageSize
					if err := m.TableOf(0).Map(v, nextPhys); err != nil {
						t.Fatalf("seed %d op %d: map: %v", seed, op, err)
					}
					shadow[v] = nextPhys
				}
			case 1: // unmap + strict invalidation
				if _, live := shadow[v]; live {
					if _, err := m.TableOf(0).Unmap(v, ptable.PageSize); err != nil {
						t.Fatalf("seed %d op %d: unmap: %v", seed, op, err)
					}
					m.InvalidateIn(0, v, 1, false)
					delete(shadow, v)
				}
			case 2: // unmap + IOTLB-only invalidation (F&S) + reclaim hook
				if _, live := shadow[v]; live {
					res, err := m.TableOf(0).Unmap(v, ptable.PageSize)
					if err != nil {
						t.Fatalf("seed %d op %d: unmap: %v", seed, op, err)
					}
					m.InvalidateIn(0, v, 1, true)
					m.InvalidateReclaimedIn(0, res.Reclaimed)
					delete(shadow, v)
				}
			default: // translate and check against the shadow model
				tr := m.TranslateIn(0, v)
				want, live := shadow[v]
				switch {
				case tr.OK() && !tr.Stale():
					if !live {
						t.Fatalf("seed %d op %d: %v translated OK while unmapped (unflagged stale)", seed, op, v)
					}
					if tr.Phys != want {
						t.Fatalf("seed %d op %d: %v -> %#x, want %#x (silent mistranslation)",
							seed, op, v, uint64(tr.Phys), uint64(want))
					}
				case tr.OK() && tr.Stale():
					// Stale hits only possible without invalidation; both
					// unmap paths above invalidate the IOTLB entry, so this
					// must never happen here.
					t.Fatalf("seed %d op %d: stale hit despite strict invalidation", seed, op)
				default:
					if live {
						t.Fatalf("seed %d op %d: %v faulted while mapped", seed, op, v)
					}
				}
			}
		}
		if c := m.Counters(); c.StaleIOTLBUses != 0 || c.StalePTUses != 0 {
			t.Fatalf("seed %d: stale-use counters nonzero: %+v", seed, c)
		}
	}
}

// Same property across two domains sharing tiny caches: heavy cross-domain
// eviction pressure must never leak a translation between domains.
func TestPropertyCrossDomainNoLeak(t *testing.T) {
	const pages = 32
	rng := rand.New(rand.NewSource(99))
	m := New(Config{IOTLBSets: 2, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
	doms := []DomainID{m.CreateDomain(), m.CreateDomain()}
	shadow := map[DomainID]map[ptable.IOVA]ptable.Phys{doms[0]: {}, doms[1]: {}}
	nextPhys := ptable.Phys(1 << 24)

	for op := 0; op < 6000; op++ {
		d := doms[rng.Intn(2)]
		v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
		switch rng.Intn(4) {
		case 0:
			if _, live := shadow[d][v]; !live {
				nextPhys += ptable.PageSize
				if err := m.TableOf(d).Map(v, nextPhys); err != nil {
					t.Fatal(err)
				}
				shadow[d][v] = nextPhys
			}
		case 1:
			if _, live := shadow[d][v]; live {
				if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
					t.Fatal(err)
				}
				m.InvalidateIn(d, v, 1, false)
				delete(shadow[d], v)
			}
		default:
			tr := m.TranslateIn(d, v)
			want, live := shadow[d][v]
			if tr.OK() && !tr.Stale() {
				if !live || tr.Phys != want {
					t.Fatalf("op %d: domain %d leaked/mistranslated %v", op, d, v)
				}
			} else if !tr.OK() && live {
				t.Fatalf("op %d: domain %d faulted on live mapping %v", op, d, v)
			}
		}
	}
}

// Two device domains interleave map/unmap/translate/flush over the
// shared hardware, beside a capability domain that grants, revokes and
// checks. Three properties the device layer depends on:
//
//  1. No cross-domain leakage (re-checked here under the F&S unmap path,
//     which TestPropertyCrossDomainNoLeak does not exercise), and a
//     domain's flush never breaks another domain's translations.
//  2. Per-domain attribution is exact: each domain's Translations and
//     InvRequests equal the TranslateIn and InvalidateIn calls made on
//     it, and the capability domain's CapChecks equal its translations.
//     host/results.go derives the per-device breakdown from CountersOf,
//     so drift here would silently misreport device interference.
//  3. Summing CountersOf over Domains reproduces Counters field-for-field.
func TestPropertyPerDomainCountersSumToGlobal(t *testing.T) {
	const pages = 32
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{IOTLBSets: 2, IOTLBWays: 2, L1Size: 2, L2Size: 2, L3Size: 2})
		doms := []DomainID{m.CreateDomain(), m.CreateDomain()}
		capDom := m.CreateDomain()
		ct := m.AttachCapTable(capDom)
		shadow := map[DomainID]map[ptable.IOVA]ptable.Phys{doms[0]: {}, doms[1]: {}, capDom: {}}
		translates := map[DomainID]int64{}
		invalidates := map[DomainID]int64{}
		nextPhys := ptable.Phys(1 << 28)

		for op := 0; op < 5000; op++ {
			d := []DomainID{doms[0], doms[1], capDom}[rng.Intn(3)]
			v := ptable.IOVA(uint64(rng.Intn(pages)) * ptable.PageSize)
			_, live := shadow[d][v]
			switch k := rng.Intn(6); {
			case k == 0 && !live: // map, or grant
				nextPhys += ptable.PageSize
				if d == capDom {
					ct.Grant(v, nextPhys)
				} else if err := m.TableOf(d).Map(v, nextPhys); err != nil {
					t.Fatal(err)
				}
				shadow[d][v] = nextPhys
			case k == 1 && live && d == capDom: // revoke
				ct.Revoke(v)
				delete(shadow[d], v)
			case k == 1 && live: // unmap + strict invalidation
				if _, err := m.TableOf(d).Unmap(v, ptable.PageSize); err != nil {
					t.Fatal(err)
				}
				m.InvalidateIn(d, v, 1, false)
				invalidates[d]++
				delete(shadow[d], v)
			case k == 2 && live && d != capDom: // unmap + IOTLB-only invalidation + reclaim hook (F&S)
				res, err := m.TableOf(d).Unmap(v, ptable.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				m.InvalidateIn(d, v, 1, true)
				m.InvalidateReclaimedIn(d, res.Reclaimed)
				invalidates[d]++
				delete(shadow[d], v)
			case k == 3 && d != capDom: // one domain's flush
				m.FlushIn(d)
			case k >= 4: // translate, checked against the shadow model
				tr := m.TranslateIn(d, v)
				translates[d]++
				want, live := shadow[d][v]
				switch {
				case tr.OK() && !tr.Stale():
					if !live || tr.Phys != want {
						t.Fatalf("seed %d op %d: domain %d leaked/mistranslated %v", seed, op, d, v)
					}
				case tr.OK() && tr.Stale():
					t.Fatalf("seed %d op %d: stale hit despite invalidation", seed, op)
				default:
					if live {
						t.Fatalf("seed %d op %d: domain %d faulted on live mapping %v", seed, op, d, v)
					}
				}
			}
		}

		for _, d := range append(doms, capDom) {
			c := m.CountersOf(d)
			if c.Translations != translates[d] || c.InvRequests != invalidates[d] {
				t.Fatalf("seed %d: domain %d counted %d translations and %d invalidation requests, made %d and %d",
					seed, d, c.Translations, c.InvRequests, translates[d], invalidates[d])
			}
		}
		if c := m.CountersOf(capDom); c.CapChecks != translates[capDom] {
			t.Fatalf("seed %d: capability domain counted %d checks for %d translations", seed, c.CapChecks, translates[capDom])
		}

		// The sum property, field-for-field via reflection so a counter
		// added later can't silently escape attribution.
		var sum Counters
		sv := reflect.ValueOf(&sum).Elem()
		for d := range m.doms {
			dc := reflect.ValueOf(m.CountersOf(DomainID(d)))
			for i := 0; i < sv.NumField(); i++ {
				sv.Field(i).SetInt(sv.Field(i).Int() + dc.Field(i).Int())
			}
		}
		if global := m.Counters(); sum != global {
			t.Fatalf("seed %d: per-domain counters don't sum to global:\n  sum:    %+v\n  global: %+v", seed, sum, global)
		}
		// The untouched default domain must have no charges.
		if c := m.CountersOf(0); c != (Counters{}) {
			t.Fatalf("seed %d: default domain charged without traffic: %+v", seed, c)
		}
	}
}
