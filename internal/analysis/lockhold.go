package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockhold: no file I/O, fsync, network call or channel send while a store
// or shard mutex is held (PR 4's striping argument collapses if one writer
// parks a shard lock on a disk flush — every reader of that shard stalls
// for the device's latency, not the critical section's). The analyzer is
// intra-procedural over critical sections and inter-procedural over what
// blocks: a module function containing a blocking operation marks every
// static caller transitively, so hiding an fsync behind a helper does not
// hide it from fpvet. Interface calls (the store's OpLog hook) are invisible
// by design — that hook's contract ("append is buffered; Sync runs after
// the locks are released") is exactly the boundary this analyzer patrols.
//
// Critical sections are tracked syntactically in statement order: from a
// .Lock()/.RLock() on a monitored mutex (a sync.Mutex/RWMutex field of a
// struct declared in a configured package, or a configured acquire helper
// like (*Store).rlockAll) to the matching release, or to function end when
// the release is deferred. The one audited exception in the tree is the
// snapshot cut: WriteSnapshotWith serialises under every shard lock because
// consistency demands it, and says so in its //fp:allow reason.

// LockholdConfig parameterises the lockhold analyzer.
type LockholdConfig struct {
	// LockPackages are import paths whose struct mutex fields define
	// monitored critical sections.
	LockPackages []string
	// AcquireHelpers / ReleaseHelpers are full function names (as printed
	// by types.Func.FullName, e.g. "(*path/to/pkg.Store).rlockAll") that
	// acquire/release monitored locks on behalf of callers.
	AcquireHelpers []string
	ReleaseHelpers []string
}

// blockReason describes why a function or call site is considered blocking.
type blockReason struct {
	desc string // e.g. "calls (*os.File).Sync"
}

// NewLockhold builds the lockhold analyzer.
func NewLockhold(cfg LockholdConfig) *Analyzer {
	lockPkgs := toSet(cfg.LockPackages)
	acquire := toSet(cfg.AcquireHelpers)
	release := toSet(cfg.ReleaseHelpers)
	a := &Analyzer{
		Name: "lockhold",
		Doc:  "no file I/O, fsync, network call or channel send while a store/shard mutex is held",
	}
	a.Run = func(pass *Pass) {
		// Pass 1 over every module function: direct blocking ops and static
		// call edges, for the transitive closure.
		facts := make(map[*types.Func]*fnFacts)
		decls := make(map[*types.Func]*declCtx)
		for _, pkg := range pass.Program.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					ff := &fnFacts{}
					collectOps(pkg.Info, fd.Body, ff.appendDirect, ff.appendCall)
					facts[fn] = ff
					decls[fn] = &declCtx{pkg: pkg, decl: fd}
				}
			}
		}

		// Transitive closure: a function that calls a blocking function is
		// blocking, with the chain recorded for the diagnostic.
		blocking := make(map[*types.Func]blockReason)
		for fn, ff := range facts {
			if len(ff.direct) > 0 {
				blocking[fn] = blockReason{desc: ff.direct[0].desc}
			}
		}
		for changed := true; changed; {
			changed = false
			for fn, ff := range facts {
				if _, done := blocking[fn]; done {
					continue
				}
				for _, cs := range ff.calls {
					if br, ok := blocking[cs.callee]; ok {
						blocking[fn] = blockReason{
							desc: fmt.Sprintf("calls %s, which %s", cs.callee.Name(), br.desc),
						}
						changed = true
						break
					}
				}
			}
		}

		// Pass 2: inside each function, overlay the blocking sites (direct
		// ops, calls to blocking module functions, channel sends) onto the
		// monitored-lock intervals.
		for fn, ff := range facts {
			dc := decls[fn]
			intervals := lockIntervals(dc.pkg.Info, dc.decl.Body, lockPkgs, acquire, release)
			if len(intervals) == 0 {
				continue
			}
			flag := func(pos token.Pos, desc string) {
				for _, iv := range intervals {
					if pos > iv.from && pos < iv.to {
						pass.Reportf(pos,
							"%s while a %s lock is held; move it outside the critical section (or //fp:allow lockhold <why it must run under the lock>)",
							desc, iv.what)
						return
					}
				}
			}
			for _, op := range ff.direct {
				flag(op.pos, op.desc)
			}
			for _, cs := range ff.calls {
				if br, ok := blocking[cs.callee]; ok {
					flag(cs.pos, fmt.Sprintf("call to %s, which %s", cs.callee.Name(), br.desc))
				}
			}
		}
	}
	return a
}

type opSite struct {
	pos  token.Pos
	desc string
}

type callSite struct {
	pos    token.Pos
	callee *types.Func
}

type declCtx struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// fnFacts are one function's blocking-relevant facts: its direct blocking
// operations and its static calls into module code.
type fnFacts struct {
	direct []opSite
	calls  []callSite
}

func (ff *fnFacts) appendDirect(pos token.Pos, desc string) {
	ff.direct = append(ff.direct, opSite{pos, desc})
}
func (ff *fnFacts) appendCall(pos token.Pos, callee *types.Func) {
	ff.calls = append(ff.calls, callSite{pos, callee})
}

// collectOps walks a function body recording direct blocking operations and
// static calls to module functions.
func collectOps(info *types.Info, body *ast.BlockStmt, direct func(token.Pos, string), call func(token.Pos, *types.Func)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			direct(n.Arrow, "channel send")
		case *ast.CallExpr:
			fn := calleeOf(info, n)
			if fn == nil {
				return true
			}
			if desc := blockingCall(fn); desc != "" {
				direct(n.Pos(), desc)
			} else if fn.Pkg() != nil && !isStdlib(fn.Pkg().Path()) {
				call(n.Pos(), fn)
			}
		}
		return true
	})
}

// interval is one monitored critical section within a function body.
type interval struct {
	from, to token.Pos
	what     string // which mutex, for the diagnostic
}

// lockIntervals computes the source spans of a body during which a
// monitored mutex is held, in statement order. Deferred releases extend the
// section to the end of the function, matching their runtime behaviour.
func lockIntervals(info *types.Info, body *ast.BlockStmt, lockPkgs, acquire, release map[string]bool) []interval {
	type event struct {
		pos   token.Pos
		delta int
		what  string
	}
	var events []event
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.FuncLit:
				return false // separate analysis scope
			case *ast.CallExpr:
				what, delta := classifyLockCall(info, m, lockPkgs, acquire, release)
				if delta == 0 {
					return true
				}
				if inDefer {
					// A deferred release keeps the lock to function end; a
					// deferred acquire (pathological) is ignored.
					return true
				}
				events = append(events, event{m.Pos(), delta, what})
			}
			return true
		})
	}
	walk(body, false)
	if len(events) == 0 {
		return nil
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var out []interval
	depth := 0
	var openAt token.Pos
	var what string
	for _, ev := range events {
		before := depth
		depth += ev.delta
		if depth < 0 {
			depth = 0
		}
		if before == 0 && depth > 0 {
			openAt, what = ev.pos, ev.what
		}
		if before > 0 && depth == 0 {
			out = append(out, interval{from: openAt, to: ev.pos, what: what})
		}
	}
	if depth > 0 {
		out = append(out, interval{from: openAt, to: body.End(), what: what})
	}
	return out
}

// classifyLockCall decides whether call acquires (+1) or releases (-1) a
// monitored mutex, returning a human name for it.
func classifyLockCall(info *types.Info, call *ast.CallExpr, lockPkgs, acquire, release map[string]bool) (string, int) {
	fn := calleeOf(info, call)
	if fn == nil {
		return "", 0
	}
	full := fn.FullName()
	if acquire[full] {
		return full, 1
	}
	if release[full] {
		return full, -1
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var delta int
	switch fn.Name() {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0
	}
	if !isSyncMutex(fn) {
		return "", 0
	}
	// The mutex itself must be a struct field declared in a monitored
	// package: s.createMu.Lock(), sh.mu.RLock(), ...
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fld := fieldOf(info, inner)
	if fld == nil || fld.Pkg() == nil || !lockPkgs[fld.Pkg().Path()] {
		return "", 0
	}
	return fld.Pkg().Name() + "." + fld.Name(), delta
}

// isSyncMutex reports whether fn is a method of sync.Mutex or sync.RWMutex.
func isSyncMutex(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// calleeOf resolves a call's static callee, or nil (interface calls,
// function values, conversions).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isStdlib reports whether an import path is standard-library shaped (no
// dot in the first path element — the module has no third-party deps, so
// everything else is module-internal).
func isStdlib(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

// nonBlockingOS are package os functions that only touch the process's own
// state, not the filesystem.
var nonBlockingOS = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Expand": true,
	"ExpandEnv": true, "Getpid": true, "Getppid": true, "Getuid": true,
	"Geteuid": true, "Getgid": true, "Getegid": true, "IsNotExist": true,
	"IsExist": true, "IsPermission": true, "IsTimeout": true,
	"NewSyscallError": true, "TempDir": true, "Exit": true,
}

// nonBlockingNet are pure parsing/formatting helpers in package net.
var nonBlockingNet = map[string]bool{
	"JoinHostPort": true, "SplitHostPort": true, "ParseIP": true,
	"ParseCIDR": true, "CIDRMask": true, "IPv4": true, "ParseMAC": true,
}

// nonBlockingHTTP are package net/http helpers that build values without
// touching the network or a ResponseWriter.
var nonBlockingHTTP = map[string]bool{
	"StatusText": true, "CanonicalHeaderKey": true, "DetectContentType": true,
	"NewServeMux": true, "NewRequest": true, "NewRequestWithContext": true,
}

// blockingRecvTypes are concrete/interface receiver types whose methods
// perform I/O (or hand bytes to something that does).
var blockingRecvTypes = map[string]map[string]bool{
	"os.File":                 nil, // nil = every method
	"net.Conn":                nil,
	"net.TCPConn":             nil,
	"net.UDPConn":             nil,
	"net.Listener":            nil,
	"net.TCPListener":         nil,
	"net/http.Client":         nil,
	"net/http.Transport":      nil,
	"net/http.ResponseWriter": nil,
	"encoding/gob.Encoder":    {"Encode": true, "EncodeValue": true},
	"encoding/gob.Decoder":    {"Decode": true, "DecodeValue": true},
	"encoding/json.Encoder":   {"Encode": true},
	"encoding/json.Decoder":   {"Decode": true},
	"bufio.Writer":            {"Flush": true, "ReadFrom": true},
}

// blockingCall classifies fn: non-empty means calling it blocks on I/O,
// the network, the disk or the wall clock.
func blockingCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		methods, ok := blockingRecvTypes[key]
		if !ok {
			return ""
		}
		if methods == nil || methods[fn.Name()] {
			return fmt.Sprintf("calls (*%s).%s", key, fn.Name())
		}
		return ""
	}
	switch pkg.Path() {
	case "os":
		if !nonBlockingOS[fn.Name()] {
			return "calls os." + fn.Name()
		}
	case "net":
		if !nonBlockingNet[fn.Name()] {
			return "calls net." + fn.Name()
		}
	case "net/http":
		if !nonBlockingHTTP[fn.Name()] {
			return "calls http." + fn.Name()
		}
	case "syscall":
		return "calls syscall." + fn.Name()
	case "os/exec":
		return "calls exec." + fn.Name()
	case "time":
		if fn.Name() == "Sleep" {
			return "calls time.Sleep"
		}
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll":
			return "calls io." + fn.Name()
		}
	}
	return ""
}
