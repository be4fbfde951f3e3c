package lint

import (
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// TestNoallocAllowlistNamesLiveFuncs fails when a noallocAllowlist entry
// names a function or method that no longer exists in the module or the
// packages it imports, so deleting a callee cannot leave a dead exemption
// behind.
func TestNoallocAllowlistNamesLiveFuncs(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				defined[obj.FullName()] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					defined[named.Method(i).FullName()] = true
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						defined[iface.Method(i).FullName()] = true
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	var stale []string
	for name := range noallocAllowlist {
		if !defined[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("noallocAllowlist entry %s names no function in the module or its imports", name)
	}
}
