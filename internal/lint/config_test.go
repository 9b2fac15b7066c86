package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestDefaultConfigNamesDeclaredFunctions keeps DefaultConfig from going
// stale: every CtxSpawners, CtxAllowlist, LockAcquirers and LeakSpawners
// entry (and each LeakSpawners join method) must name a function or method
// declared in this module. An entry naming deleted code matches nothing,
// so without this check it would sit in the config unnoticed.
func TestDefaultConfigNamesDeclaredFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					declared[funcDeclQualifiedName(pkg, fd)] = true
				}
			}
		}
	}

	cfg := DefaultConfig()
	lists := map[string][]string{
		"CtxSpawners":   cfg.CtxSpawners,
		"CtxAllowlist":  cfg.CtxAllowlist,
		"LockAcquirers": cfg.LockAcquirers,
	}
	for spawner, join := range cfg.LeakSpawners {
		recv := spawner[:strings.LastIndex(spawner, ".")+1]
		lists["LeakSpawners"] = append(lists["LeakSpawners"], spawner, recv+join)
	}
	for field, names := range lists {
		if len(names) == 0 {
			t.Errorf("DefaultConfig().%s is empty", field)
		}
		for _, name := range names {
			if !declared[name] {
				t.Errorf("DefaultConfig().%s names %s, which the module does not declare", field, name)
			}
		}
	}
}
