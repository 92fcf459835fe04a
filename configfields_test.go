package fastsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// configTypes are the config types of each layer under internal/, by
// package name: each exported field is a knob some caller above the
// layer could set, so each must have a caller.
var configTypes = map[string][]string{
	"ats":       {"Config"},
	"cohort":    {"Config"},
	"control":   {"Config"},
	"core":      {"Config"},
	"fabric":    {"Config"},
	"host":      {"Config", "TelemetryConfig", "Topology", "NICSpec", "StorageSpec", "ServeConfig", "MsgConfig", "ClusterConfig"},
	"iommu":     {"Config"},
	"nic":       {"Config"},
	"runner":    {"Config"},
	"transport": {"Params"},
}

// configFieldTestOnly lists the config fields no non-test caller outside
// the declaring package sets, each with the test that sets it and what
// that test checks. Keys are package.Type.Field.
var configFieldTestOnly = map[string]string{
	"host.Config.NICBufferBytes": "the drop and resend goldens (traffic_serve_expiry, traffic_msg_resend_*) shrink the NIC buffer",
	"host.MsgConfig.Timeout":     "the resend goldens (traffic_msg_resend_*) shorten the resend timeout",
	"host.Config.DDIO":           "TestDDIOReducesMemoryPressure checks the paper's §4.1 DDIO remark",
	"host.NICSpec.Cores":         "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"host.NICSpec.RxFlows":       "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"host.NICSpec.TxFlows":       "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"host.NICSpec.MTU":           "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"core.Config.DeferredLimit":  "core's TestGoldenPolicyLedger batches 6 pages (testdata/golden/ledger.txt), and TestDeferredLeavesUnsafeWindow, TestDeferredFlushRevokesAccess and TestTxRecordsNeverAlias flush at 8 or 16 pages or never",
	"iommu.Config.IOTLBSets":     shrunkCaches,
	"iommu.Config.IOTLBWays":     shrunkCaches,
	"iommu.Config.L1Size":        shrunkCaches,
	"iommu.Config.L2Size":        shrunkCaches,
}

const shrunkCaches = "iommu's property tests (TestPropertyNoSilentMistranslation, TestPropertyCrossDomainNoLeak, TestPropertyPerDomainCountersSumToGlobal) and nic's TestRxBatchMatchesRoundRobin shrink the caches to force evictions"

// TestConfigFieldsHaveCallers fails on an exported field of a config
// type in configTypes that no non-test file outside the declaring
// package sets, in the module or in simbench, unless configFieldTestOnly
// lists it; and on a listed field that gained such a setter or no longer
// exists. A field counts as set by a composite-literal key, an
// assignment or increment target (every field along the selector chain,
// so s.Host.Telemetry.SampleEvery = ... sets host.Config.Telemetry and
// host.TelemetryConfig.SampleEvery), or an &x.F flag binding. Defaults inside the
// declaring package set nothing: a field only they set is a constant.
func TestConfigFieldsHaveCallers(t *testing.T) {
	_, pkgs := checkedModule(t)
	keys := map[*types.TypeName]string{} // each config type's package.Type
	seen := map[string]bool{}
	exists := map[string]bool{}
	var fields []string
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		seen[rel] = true
		for _, name := range configTypes[rel] {
			obj, _ := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if obj == nil {
				t.Errorf("%s.%s: no such type; drop it from configTypes", rel, name)
				continue
			}
			key := rel + "." + name
			keys[obj] = key
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					exists[key+"."+f.Name()] = true
					fields = append(fields, key+"."+f.Name())
				}
			}
		}
	}
	for _, rel := range sortedKeys(configTypes) {
		if !seen[rel] {
			t.Errorf("internal/%s: no such package; drop it from configTypes", rel)
		}
	}
	set := map[string]bool{}
	for _, p := range pkgs {
		// outside returns the key of a config type declared in another
		// package than p, or "".
		outside := func(named *types.Named) string {
			if named == nil || named.Obj().Pkg() == p.pkg {
				return ""
			}
			return keys[named.Obj()]
		}
		mark := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						if key := outside(fieldOwner(sel)); key != "" {
							set[key+"."+x.Sel.Name] = true
						}
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					named, _ := deref(p.info.TypeOf(n)).(*types.Named)
					key := outside(named)
					if key == "" {
						break
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[key+"."+id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}
	for _, key := range fields {
		_, listed := configFieldTestOnly[key]
		switch {
		case !set[key] && !listed:
			t.Errorf("%s: no non-test caller outside its package sets it: make it a constant, or list it in configFieldTestOnly with the test that sets it", key)
		case set[key] && listed:
			t.Errorf("%s: a non-test caller sets it; drop it from configFieldTestOnly", key)
		}
	}
	for _, key := range sortedKeys(configFieldTestOnly) {
		if !exists[key] {
			t.Errorf("%s: listed in configFieldTestOnly, but no such field; drop the entry", key)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fieldOwner returns the named struct type that declares the field sel
// selects, following any embedded fields it is promoted through.
func fieldOwner(sel *types.Selection) *types.Named {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	named, _ := deref(t).(*types.Named)
	return named
}

func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}
