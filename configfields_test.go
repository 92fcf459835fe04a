package fastsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// hostConfigTypes are internal/host's config types: each exported field
// is a knob every front end could set, so each must have a caller.
var hostConfigTypes = []string{
	"Config", "TelemetryConfig", "Topology", "NICSpec", "StorageSpec",
	"ServeConfig", "MsgConfig", "ClusterConfig",
}

// configFieldTestOnly lists the host config fields no non-test caller
// sets, each with the test that sets it and what that test checks.
var configFieldTestOnly = map[string]string{
	"Config.NICBufferBytes": "the drop and resend goldens (traffic_serve_expiry, traffic_msg_resend_*) shrink the NIC buffer",
	"MsgConfig.Timeout":     "the resend goldens (traffic_msg_resend_*) shorten the resend timeout",
	"Config.DDIO":           "TestDDIOReducesMemoryPressure checks the paper's §4.1 DDIO remark",
	"NICSpec.Cores":         "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"NICSpec.RxFlows":       "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"NICSpec.TxFlows":       "the traffic_extra_nic_tx golden shapes a second NIC's flows",
	"NICSpec.MTU":           "the traffic_extra_nic_tx golden shapes a second NIC's flows",
}

// TestConfigFieldsHaveCallers fails on an exported field of a host
// config type that no non-test file outside package host sets, unless
// configFieldTestOnly lists it; and on a listed field that gained such a
// setter or no longer exists. A field counts as set by a composite-
// literal key, an assignment or increment target (every field along the
// selector chain, so s.Host.IOMMU.L3Size = ... sets Config.IOMMU), or an
// &x.F flag binding. Defaults inside package host set nothing: a field
// only they set is a constant.
func TestConfigFieldsHaveCallers(t *testing.T) {
	_, pkgs := checkedModule(t)
	const hostPath = "fastsafe/internal/host"
	var hostPkg *types.Package
	set := map[string]bool{}
	for _, p := range pkgs {
		if p.dir == "internal/host" {
			hostPkg = p.pkg
			continue
		}
		mark := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						if owner := fieldOwner(sel); owner != nil && owner.Obj().Pkg().Path() == hostPath {
							set[owner.Obj().Name()+"."+x.Sel.Name] = true
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
					named, ok := types.Unalias(p.info.TypeOf(n)).(*types.Named)
					if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != hostPath {
						break
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[named.Obj().Name()+"."+key.Name] = true
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
	if hostPkg == nil {
		t.Fatal("internal/host was not type-checked")
	}
	exists := map[string]bool{}
	var fields []string
	for _, name := range hostConfigTypes {
		obj := hostPkg.Scope().Lookup(name)
		if obj == nil {
			t.Errorf("host.%s: no such type; drop it from hostConfigTypes", name)
			continue
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				key := name + "." + f.Name()
				exists[key] = true
				fields = append(fields, key)
			}
		}
	}
	for _, key := range fields {
		_, listed := configFieldTestOnly[key]
		switch {
		case !set[key] && !listed:
			t.Errorf("host.%s: no non-test caller outside package host sets it: make it a constant, or list it in configFieldTestOnly with the test that sets it", key)
		case set[key] && listed:
			t.Errorf("host.%s: a non-test caller sets it; drop it from configFieldTestOnly", key)
		}
	}
	listed := make([]string, 0, len(configFieldTestOnly))
	for key := range configFieldTestOnly {
		listed = append(listed, key)
	}
	sort.Strings(listed)
	for _, key := range listed {
		if !exists[key] {
			t.Errorf("host.%s: listed in configFieldTestOnly, but no such field; drop the entry", key)
		}
	}
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
