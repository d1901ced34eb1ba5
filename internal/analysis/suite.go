package analysis

// suite.go pins the repo's rulebook: the concrete configuration of every
// analyzer for this module. docs/INVARIANTS.md is the prose twin of this
// file — change one, change the other.

// ModulePath is the import path of this module; the default suite's rules
// are expressed against it.
const ModulePath = "fakeproject"

// DefaultSuite returns the fpvet analyzers configured for this repository.
func DefaultSuite() []*Analyzer {
	return []*Analyzer{
		NewWalltime(WalltimeConfig{
			// simclock is the one place allowed to touch the wall clock: it
			// wraps it behind the Clock interface every daemon consumes.
			ExemptPackages: []string{ModulePath + "/internal/simclock"},
			// Legitimate wall-time consumers, allowlisted as packages:
			// loadgen's Run schedules open-loop arrivals and measures
			// client-perceived latency on the wall clock (the daemons it
			// drives serve in real time), and the WAL times real fsyncs
			// (durability happens in wall time even when the simulation
			// does not).
			AllowPackages: []string{
				ModulePath + "/internal/loadgen",
				ModulePath + "/internal/wal",
			},
		}),
		NewLayering(LayeringConfig{
			ModulePath: ModulePath,
			CmdPrefix:  ModulePath + "/cmd",
			Rules: []LayeringRule{
				// The domain core stays storage- and telemetry-free: WAL
				// attachment happens through the OpLog hook (PR 7), metrics
				// through the daemons that own them (PR 6).
				{Package: ModulePath + "/internal/twitter", OnlyImports: []string{
					ModulePath + "/internal/drand",
					ModulePath + "/internal/simclock",
				}},
				// The observability plane is stdlib-only so every subsystem
				// can depend on it without cycles.
				{Package: ModulePath + "/internal/metrics", OnlyImports: []string{}},
				// The routing tier speaks plain HTTP to its backends and
				// must never grow store or API-implementation knowledge:
				// everything it routes by is wire-visible contract. Keeping
				// it a stdlib + metrics + simclock leaf is what lets it
				// front any conforming deployment (PR 10).
				{Package: ModulePath + "/internal/router", OnlyImports: []string{
					ModulePath + "/internal/metrics",
					ModulePath + "/internal/simclock",
				}},
				// The load harness drives running daemons over HTTP and
				// nothing else: no platform, auditd, population, wal or
				// router import, so an in-process platform cannot grow back
				// inside it. Its tests assemble one, but the rule does not
				// scan test files.
				{Package: ModulePath + "/internal/loadgen", OnlyImports: []string{
					ModulePath + "/internal/drand",
					ModulePath + "/internal/metrics",
				}},
				// Leaf utility packages stay leaves.
				{Package: ModulePath + "/internal/simclock", OnlyImports: []string{}},
				{Package: ModulePath + "/internal/drand", OnlyImports: []string{}},
				{Package: ModulePath + "/internal/stats", OnlyImports: []string{}},
				{Package: ModulePath + "/internal/analysis", OnlyImports: []string{}},
				// The experiment engine is for batch drivers, not serving
				// daemons: core types flow into cmd/* and the offline tools
				// only.
				{Package: ModulePath + "/internal/core", RestrictedTo: []string{
					ModulePath,
					ModulePath + "/cmd/*",
					ModulePath + "/examples/*",
					ModulePath + "/internal/auditd",
					ModulePath + "/internal/experiments",
					ModulePath + "/internal/fc",
					ModulePath + "/internal/tools/*",
				}},
				// The process assembly sits directly under the binaries:
				// it imports every plane it wires together (router included,
				// for the Ring), so nothing but cmd/* may import it, or the
				// DAG would close into a cycle.
				{Package: ModulePath + "/internal/platform", RestrictedTo: []string{
					ModulePath + "/cmd/*",
				}},
			},
		}),
		NewAtomicField(),
		NewLockhold(LockholdConfig{
			// The store's shard and name-stripe mutexes plus createMu: no
			// blocking syscall is reachable while one is held (PR 4's
			// lock-striping contract). The WAL's writer mutex is exempt by
			// scope: its group-commit design syncs under w.mu on rotation
			// deliberately.
			LockPackages: []string{ModulePath + "/internal/twitter"},
			AcquireHelpers: []string{
				"(*" + ModulePath + "/internal/twitter.Store).rlockAll",
			},
			ReleaseHelpers: []string{
				"(*" + ModulePath + "/internal/twitter.Store).runlockAll",
			},
		}),
		NewHotpathAlloc(),
		NewMetricnames(MetricnamesConfig{
			RegistryTypes: []string{ModulePath + "/internal/metrics.Registry"},
		}),
		NewPkgdoc(PkgdocConfig{
			IncludePrefixes: []string{
				ModulePath + "/internal",
				ModulePath + "/cmd",
			},
		}),
		NewNoclone(NocloneConfig{
			Types: []string{
				ModulePath + "/internal/twitter.Store",
				ModulePath + "/internal/metrics.Registry",
				ModulePath + "/internal/metrics.Histogram",
			},
		}),
	}
}
