package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// The golden harness: each testdata/src/<case> package annotates the lines
// where diagnostics must appear with
//
//	code() // want "regexp matching the message"
//
// or, for diagnostics reported at a comment's own position (directive
// hygiene), with a marker on the line above:
//
//	// want-next "regexp"
//	//fp:allow walltime oops
//
// The case fails on any unmatched diagnostic and any unsatisfied want, so
// the goldens pin each analyzer's exact finding set — including what the
// suppression directives silence (asserted via the Suppressed count).

const testModule = "example.test"

var wantRe = regexp.MustCompile(`want(-next)? "([^"]*)"`)

type wantExp struct {
	re   *regexp.Regexp
	used bool
}

type posKey struct {
	file string
	line int
}

func collectWants(t *testing.T, prog *Program) map[posKey][]*wantExp {
	t.Helper()
	wants := make(map[posKey][]*wantExp)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[2])
						if err != nil {
							t.Fatalf("bad want pattern %q: %v", m[2], err)
						}
						pos := prog.Fset.Position(c.Pos())
						line := pos.Line
						if m[1] == "-next" {
							line++
						}
						key := posKey{pos.Filename, line}
						wants[key] = append(wants[key], &wantExp{re: re})
					}
				}
			}
		}
	}
	return wants
}

// runCase loads the given testdata packages, runs the analyzers, and checks
// the diagnostics against the // want annotations.
func runCase(t *testing.T, patterns []string, analyzers []*Analyzer, minSuppressed int) {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", "src"), testModule, patterns)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(prog, analyzers)
	wants := collectWants(t, prog)
	for _, d := range res.Diagnostics {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
	if res.Suppressed < minSuppressed {
		t.Errorf("suppressed %d diagnostics, want at least %d (a suppression golden stopped working)",
			res.Suppressed, minSuppressed)
	}
}

func TestWalltime(t *testing.T) {
	runCase(t,
		[]string{"./walltime", "./walltime/clock", "./walltime/allowed"},
		[]*Analyzer{NewWalltime(WalltimeConfig{
			ExemptPackages: []string{testModule + "/walltime/clock"},
			AllowPackages:  []string{testModule + "/walltime/allowed"},
		})},
		2) // one //fp:allow line, one //fp:allow-file file
}

func TestLayering(t *testing.T) {
	runCase(t,
		[]string{
			"./layering/core", "./layering/strict", "./layering/usr",
			"./layering/allowedusr", "./layering/suppressedusr", "./layering/cmd/a",
		},
		[]*Analyzer{NewLayering(LayeringConfig{
			ModulePath: testModule,
			CmdPrefix:  testModule + "/layering/cmd",
			Rules: []LayeringRule{
				{Package: testModule + "/layering/core", OnlyImports: []string{testModule + "/layering/leaf"}},
				{Package: testModule + "/layering/strict", OnlyImports: []string{}},
				{Package: testModule + "/layering/secret", RestrictedTo: []string{testModule + "/layering/allowedusr"}},
			},
		})},
		1)
}

func TestAtomicField(t *testing.T) {
	runCase(t, []string{"./atomicfield"}, []*Analyzer{NewAtomicField()}, 1)
}

func TestLockhold(t *testing.T) {
	runCase(t, []string{"./lockhold"}, []*Analyzer{NewLockhold(LockholdConfig{
		LockPackages: []string{testModule + "/lockhold"},
	})}, 1)
}

func TestHotpathAlloc(t *testing.T) {
	runCase(t, []string{"./hotpathalloc"}, []*Analyzer{NewHotpathAlloc()}, 1)
}

func TestMetricnames(t *testing.T) {
	runCase(t, []string{"./metricnames"}, []*Analyzer{NewMetricnames(MetricnamesConfig{
		RegistryTypes: []string{testModule + "/metricnames/reg.Registry"},
	})}, 1)
}

func TestPkgdoc(t *testing.T) {
	runCase(t,
		[]string{"./pkgdoc/documented", "./pkgdoc/undocumented", "./pkgdoc/suppressed"},
		[]*Analyzer{NewPkgdoc(PkgdocConfig{IncludePrefixes: []string{testModule + "/pkgdoc"}})},
		1)
}

func TestNoclone(t *testing.T) {
	runCase(t, []string{"./noclone", "./noclone/types"}, []*Analyzer{NewNoclone(NocloneConfig{
		Types: []string{testModule + "/noclone/types.Tracker"},
	})}, 1)
}

// TestDirectiveHygiene pins the fpallow pseudo-analyzer: malformed
// suppressions are diagnostics and cannot themselves be suppressed.
func TestDirectiveHygiene(t *testing.T) {
	runCase(t, []string{"./fpallow"}, []*Analyzer{NewWalltime(WalltimeConfig{})}, 0)
}

// TestSmokePackage pins the CI negative step's fixture: fpvet over the smoke
// package must produce at least one walltime diagnostic.
func TestSmokePackage(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src"), testModule, []string{"./smoke"})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(prog, []*Analyzer{NewWalltime(WalltimeConfig{})})
	if len(res.Diagnostics) == 0 {
		t.Fatal("the smoke package must trip the walltime analyzer; CI's negative step depends on it")
	}
}
