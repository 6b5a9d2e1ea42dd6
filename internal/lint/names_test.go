package lint_test

import (
	"go/types"
	"strings"
	"testing"

	"pbox/internal/lint/loader"
	"pbox/internal/lint/lockorder"
	"pbox/internal/lint/reentry"
	"pbox/internal/lint/snapshot"
)

// TestKeyedNamesExist loads the real internal/core and checks that every
// name a pass table keys on is declared there, as the kind of declaration
// the pass expects. The passes match by name, so a renamed lock, flush
// helper or interface would leave its rule checking nothing, silently.
func TestKeyedNamesExist(t *testing.T) {
	pkgs, err := loader.Load("../..", "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	core := pkgs[0].Types
	named := func(name string) *types.Named {
		t.Helper()
		tn, ok := core.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			t.Fatalf("internal/core declares no type %s", name)
		}
		return tn.Type().(*types.Named)
	}
	method := func(owner *types.Named, name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(owner, true, core, name)
		_, ok := obj.(*types.Func)
		return ok
	}
	anyMethod := func(name string) bool {
		for _, n := range core.Scope().Names() {
			if tn, ok := core.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() && method(tn.Type().(*types.Named), name) {
				return true
			}
		}
		return false
	}
	mutexField := func(key string) {
		t.Helper()
		owner, field, _ := strings.Cut(key, ".")
		obj, _, _ := types.LookupFieldOrMethod(named(owner), true, core, field)
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			t.Errorf("%s: %s has no field %s", key, owner, field)
			return
		}
		if lock, _, _ := types.LookupFieldOrMethod(types.NewPointer(v.Type()), true, core, "Lock"); lock == nil {
			t.Errorf("%s is a %s, not a mutex", key, v.Type())
		}
	}

	for key := range lockorder.LockTable {
		mutexField(key)
	}

	if _, ok := named(snapshot.ViewType).Underlying().(*types.Struct); !ok {
		t.Errorf("%s is not a struct type", snapshot.ViewType)
	}
	for name := range snapshot.FlushCalls {
		if !anyMethod(name) {
			t.Errorf("reader rule flush call %s is no method in internal/core", name)
		}
	}
	if !method(named(snapshot.SpoolType), "flush") {
		t.Errorf("%s has no flush method", snapshot.SpoolType)
	}
	mutexField(snapshot.ShardType + ".mu")

	var observers []*types.Interface
	for _, name := range reentry.ObserverInterfaces {
		iface, ok := named(name).Underlying().(*types.Interface)
		if !ok {
			t.Errorf("%s is not an interface", name)
			continue
		}
		observers = append(observers, iface)
	}
	manager := named(reentry.ManagerType)
	for name := range reentry.LockFree {
		if !method(manager, name) {
			t.Errorf("lock-free accessor %s is no %s method", name, reentry.ManagerType)
		}
	}
	for name := range reentry.OutsideLocks {
		found := false
		for _, iface := range observers {
			for i := 0; i < iface.NumMethods(); i++ {
				found = found || iface.Method(i).Name() == name
			}
		}
		if !found {
			t.Errorf("outside-locks callback %s is a method of no observer interface", name)
		}
	}
}
