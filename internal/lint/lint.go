package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the driver's file:line: [analyzer] format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer names, used in output, suppression comments, and Config.
const (
	RuleAtomic    = "atomic-consistency"
	RuleCtx       = "ctx-propagation"
	RuleHotPath   = "hot-path-alloc"
	RuleLock      = "lock-discipline"
	RuleLockOrder = "lock-order"
	RuleGoroLeak  = "goroutine-leak"
	RuleErrDrop   = "err-drop"
	RuleRetry     = "retry-discipline"
	// RuleUnusedIgnore is the pseudo-analyzer reporting stale
	// //skewlint:ignore directives; enabled by Config.ReportUnusedIgnores.
	RuleUnusedIgnore = "unused-ignore"
)

// Config tunes the analyzers.
type Config struct {
	// CtxSpawners are qualified names ("pkgpath.Func" or
	// "pkgpath.Type.Method") whose call sites count as spawning parallel
	// work for ctx-propagation, in addition to `go` statements.
	CtxSpawners []string
	// CtxAllowlist are qualified names of exported functions exempt from
	// ctx-propagation — the deliberate non-ctx primitives (e.g.
	// exec.Parallel itself).
	CtxAllowlist []string
	// AtomicScope restricts atomic-consistency's plain-access scan to
	// packages with one of these import-path prefixes (empty = all
	// loaded packages). Atomic use sites are collected everywhere
	// regardless, so a field is recognised as atomic no matter where the
	// atomic access lives.
	AtomicScope []string
	// LockAcquirers are qualified method names that count as lock
	// acquisitions for lock-order, in addition to sync.Mutex/RWMutex
	// Lock/RLock (e.g. the admission gate's Acquire).
	LockAcquirers []string
	// LeakSpawners maps spawner qualified names to the method on the same
	// receiver class that joins the spawned work (e.g. exec.Group.Go ->
	// "Wait"). Calls to a spawner obligate some reachable call to the join
	// method, just like `go` statements obligate their WaitGroup/channel
	// joins.
	LeakSpawners map[string]string
	// ErrDropAllowlist are qualified function names whose error result may
	// be discarded as a bare statement (e.g. fmt.Fprintf to an in-memory
	// buffer in rendering paths).
	ErrDropAllowlist []string
	// RetryScope restricts retry-discipline to packages with one of these
	// import-path prefixes (empty disables the analyzer — retry loops are
	// only a protocol concern in the cluster layer).
	RetryScope []string
	// RetryClassifiers are qualified method names that classify an error
	// as transiently retryable (e.g. cluster.ShardError.Retryable). A
	// retry loop must consult one before re-issuing.
	RetryClassifiers []string
	// ReportUnusedIgnores emits an unused-ignore finding for every
	// //skewlint:ignore directive that suppressed nothing this run.
	ReportUnusedIgnores bool
}

// DefaultConfig is the project configuration skewlint runs with: the
// exec package's non-ctx scheduling primitives are the explicit
// allowlist, and its queue-draining entry points are the spawner set.
func DefaultConfig() Config {
	const exec = "skewjoin/internal/exec"
	const cluster = "skewjoin/internal/cluster"
	const service = "skewjoin/internal/service"
	const ssj = "skewjoin/internal/ssj"
	return Config{
		CtxSpawners: []string{
			exec + ".Parallel",
			exec + ".ParallelCtx",
			exec + ".Queue.Drain",
			exec + ".Queue.DrainCtx",
			exec + ".Queue.DrainHooked",
			exec + ".Group.Go",
			// The cluster router's shard fan-out spawns one goroutine per
			// shard; every closure it runs must take and pass the ctx so
			// a fleet deadline reaches each shard call.
			cluster + ".fanOut",
			// The streaming symmetric join's chunk-drain fan-out: its
			// workers run until the queue drains, the limit hook fires, or
			// the caller cancels — so every exported caller must accept
			// and forward a context.
			ssj + ".drainChunks",
			// The join-phase worker pool behind the CPU hash joins and the
			// split executor's CPU leg (including the fragment path, which
			// fans an oversized probe range into sub-tasks on the same
			// fetch-add queue): it blocks until its workers finish, so
			// every exported caller must accept a ctx and forward it for
			// the pool's cancellation checks to mean anything.
			"skewjoin/internal/joinphase.Run",
		},
		CtxAllowlist: []string{
			// The paper's scheduling shapes are deliberately ctx-free:
			// cancellation is layered on top via the *Ctx variants, and
			// the non-Ctx forms stay for callers that must not be
			// cancellable (e.g. oracle verification).
			exec + ".Parallel",
			exec + ".Queue.Drain",
			exec + ".Group.Go",
		},
		LockAcquirers: []string{
			// The per-shard admission gate: Acquire blocks like a weighted
			// Lock, so its orderings feed the lock-order graph (the ring
			// invariant lives here).
			service + ".Admission.Acquire",
		},
		LeakSpawners: map[string]string{
			// Group.Go spawns a goroutine joined by Group.Wait on the same
			// group value.
			exec + ".Group.Go": "Wait",
		},
		ErrDropAllowlist: []string{
			// Terminal writes in CLI tools: a failed stdout write has no
			// recovery and the process is about to exit anyway.
			"fmt.Printf",
			"fmt.Println",
			"fmt.Print",
			"fmt.Fprintf",
			"fmt.Fprintln",
			"fmt.Fprint",
			// strings.Builder's Write* methods are documented to always
			// return a nil error.
			"strings.Builder.WriteString",
		},
		RetryScope: []string{cluster},
		RetryClassifiers: []string{
			cluster + ".ShardError.Retryable",
		},
	}
}

// Run executes every analyzer over the loaded packages and returns the
// surviving findings (suppressions applied) sorted by position.
func Run(l *Loader, pkgs []*Package, cfg Config) []Finding {
	var all []Finding
	all = append(all, analyzeAtomic(l, pkgs, cfg)...)
	all = append(all, analyzeCtx(l, pkgs, cfg)...)
	all = append(all, analyzeHotPath(l, pkgs)...)
	all = append(all, analyzeLocks(l, pkgs)...)
	model := newLockModel(cfg)
	sums := buildSummaries(pkgs, model)
	all = append(all, analyzeLockOrder(l, pkgs, model, sums)...)
	all = append(all, analyzeGoroLeak(l, pkgs, cfg, sums)...)
	all = append(all, analyzeErrDrop(l, pkgs, cfg)...)
	all = append(all, analyzeRetry(l, pkgs, cfg)...)
	all = suppress(l, pkgs, cfg, all)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// relFile renders a source filename relative to the module root with
// forward slashes (stable output regardless of invocation directory).
// Files outside the module keep their original path.
func (l *Loader) relFile(file string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// relPosition renders a cross-referenced position module-relative, so
// messages stay stable across checkouts.
func (l *Loader) relPosition(pos token.Pos) string {
	p := l.fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", l.relFile(p.Filename), p.Line, p.Column)
}

// finding builds a Finding at pos with the file path relative to the
// module root.
func (l *Loader) finding(pos token.Pos, analyzer, format string, args ...any) Finding {
	p := l.fset.Position(pos)
	return Finding{
		File:     l.relFile(p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// suppress drops findings covered by a //skewlint:ignore directive on the
// same line or the line directly above. A bare ignore suppresses every
// rule on that line; `//skewlint:ignore rule1 rule2` only the named ones.
// Directives and findings are both keyed by module-relative path, so
// matching is independent of the directory skewlint was invoked from.
// When cfg.ReportUnusedIgnores is set, every directive that suppressed
// nothing becomes an unused-ignore finding.
func suppress(l *Loader, pkgs []*Package, cfg Config, findings []Finding) []Finding {
	type key struct {
		file string
		line int
	}
	type directive struct {
		rules []string // nil = ignore all rules
		pos   token.Pos
		used  bool
	}
	ignores := make(map[key]*directive)
	var order []key // deterministic unused-ignore output
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//skewlint:ignore")
					if !ok {
						continue
					}
					p := l.fset.Position(c.Pos())
					rules := strings.FieldsFunc(text, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
					// Keep rationale comments out of the rule list:
					// everything after " -- " is prose.
					for i, r := range rules {
						if r == "--" {
							rules = rules[:i]
							break
						}
					}
					k := key{file: l.relFile(p.Filename), line: p.Line}
					d, seen := ignores[k]
					if !seen {
						d = &directive{pos: c.Pos()}
						ignores[k] = d
						order = append(order, k)
					}
					if len(rules) == 0 {
						d.rules = nil
					} else {
						d.rules = append(d.rules, rules...)
					}
				}
			}
		}
	}
	matches := func(f Finding, line int) bool {
		d, ok := ignores[key{file: f.File, line: line}]
		if !ok {
			return false
		}
		if len(d.rules) == 0 {
			d.used = true
			return true
		}
		for _, r := range d.rules {
			if r == f.Analyzer {
				d.used = true
				return true
			}
		}
		return false
	}
	out := findings[:0]
	for _, f := range findings {
		if matches(f, f.Line) || matches(f, f.Line-1) {
			continue
		}
		out = append(out, f)
	}
	if cfg.ReportUnusedIgnores {
		for _, k := range order {
			d := ignores[k]
			if d.used {
				continue
			}
			what := "all rules"
			if len(d.rules) > 0 {
				what = strings.Join(d.rules, ", ")
			}
			out = append(out, l.finding(d.pos, RuleUnusedIgnore,
				"ignore directive for %s suppresses no finding; delete it", what))
		}
	}
	return out
}

// inScope reports whether pkg matches one of the import-path prefixes
// (empty prefixes = everything).
func inScope(pkg *Package, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if pkg.PkgPath == p || strings.HasPrefix(pkg.PkgPath, p+"/") {
			return true
		}
	}
	return false
}

// qualifiedName renders a function object as pkgpath.Func or
// pkgpath.Type.Method for matching against Config lists.
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// funcDeclQualifiedName renders a declaration's qualified name, matching
// qualifiedName's format.
func funcDeclQualifiedName(pkg *Package, decl *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
		return qualifiedName(obj)
	}
	return pkg.PkgPath + "." + decl.Name.Name
}

// calleeFunc resolves a call expression to the function object it
// invokes, unwrapping parens; nil for indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// fieldVarOf resolves a selector expression to the struct field it
// denotes, or nil when it denotes anything else (method, package member,
// local, …).
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	// Qualified identifiers (pkg.Var) land in Uses, not Selections, and
	// are not fields; selections cover every genuine field access.
	return nil
}
