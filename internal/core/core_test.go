package core

import (
	"errors"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func TestVerdictCountsPercentages(t *testing.T) {
	v := VerdictCounts{Inactive: 25, Fake: 25, Genuine: 50}
	i, f, g := v.Percentages()
	if i != 25 || f != 25 || g != 50 {
		t.Fatalf("percentages = %v %v %v", i, f, g)
	}
	var zero VerdictCounts
	i, f, g = zero.Percentages()
	if i != 0 || f != 0 || g != 0 {
		t.Fatal("zero counts must yield zero percentages")
	}
}

func TestIsDormant(t *testing.T) {
	now := simclock.Epoch
	never := twitter.Profile{}
	if !IsDormant(never.View(), now) {
		t.Fatal("never-tweeted account must be dormant")
	}
	old := twitter.Profile{LastTweetAt: now.AddDate(0, 0, -91)}
	old.StatusesCount = 10
	if !IsDormant(old.View(), now) {
		t.Fatal("91-day-old last tweet must be dormant")
	}
	fresh := twitter.Profile{LastTweetAt: now.AddDate(0, 0, -89)}
	fresh.StatusesCount = 10
	if IsDormant(fresh.View(), now) {
		t.Fatal("89-day-old last tweet must not be dormant")
	}
}

func TestPaperTestbedShape(t *testing.T) {
	testbed := PaperTestbed()
	if len(testbed) != 20 {
		t.Fatalf("testbed has %d accounts, want 20", len(testbed))
	}
	classes := map[AccountClass]int{}
	names := map[string]bool{}
	tableII := 0
	for _, a := range testbed {
		if names[a.ScreenName] {
			t.Fatalf("duplicate account %s", a.ScreenName)
		}
		names[a.ScreenName] = true
		classes[a.Class]++
		if a.TableII != nil {
			tableII++
			if a.Class != ClassAverage {
				t.Fatalf("%s: Table II row on non-average account", a.ScreenName)
			}
		}
		// Percentage columns must roughly sum to 100.
		for col, m := range map[string]MixPct{"FC": a.FC, "SP": a.SP, "SB": a.SB} {
			sum := m.Inactive + m.Fake + m.Genuine
			if sum < 99 || sum > 101 {
				t.Fatalf("%s %s column sums to %v", a.ScreenName, col, sum)
			}
		}
		if a.TA.Inactive != -1 {
			t.Fatalf("%s: TA column should have no inactive class", a.ScreenName)
		}
		if sum := a.TA.Fake + a.TA.Genuine; sum < 99 || sum > 101 {
			t.Fatalf("%s TA column sums to %v", a.ScreenName, sum)
		}
	}
	if classes[ClassLow] != 4 || classes[ClassAverage] != 13 || classes[ClassHigh] != 3 {
		t.Fatalf("class sizes = %v, want 4/13/3", classes)
	}
	if tableII != 13 {
		t.Fatalf("Table II rows = %d, want 13", tableII)
	}
}

func TestPaperTestbedKnownCells(t *testing.T) {
	testbed := PaperTestbed()
	byName := map[string]PaperAccount{}
	for _, a := range testbed {
		byName[a.ScreenName] = a
	}
	pc := byName["PC_Chiambretti"]
	if pc.FC.Inactive != 97 || pc.Followers != 70900 {
		t.Fatalf("PC_Chiambretti row corrupted: %+v", pc)
	}
	obama := byName["BarackObama"]
	if obama.Followers != 41000000 || obama.FC.Inactive != 57.1 {
		t.Fatalf("BarackObama row corrupted: %+v", obama)
	}
	pinuccio := byName["pinucciotwit"]
	if len(pinuccio.CachedBy) != 2 || pinuccio.TableII.TA != 3 || pinuccio.TableII.SP != 2 {
		t.Fatalf("pinucciotwit caching row corrupted: %+v", pinuccio)
	}
}

func TestAverageAccounts(t *testing.T) {
	avg := AverageAccounts(PaperTestbed())
	if len(avg) != 13 {
		t.Fatalf("average accounts = %d, want 13", len(avg))
	}
	if avg[0].ScreenName != "giovanniallevi" || avg[12].ScreenName != "RudyZerbi" {
		t.Fatal("paper order not preserved")
	}
}

func TestDeepDiveCases(t *testing.T) {
	cases := DeepDiveCases()
	if len(cases) != 3 {
		t.Fatalf("deep dive cases = %d", len(cases))
	}
	for _, c := range cases {
		if c.DeepDivePct >= c.FakersPct {
			t.Fatalf("%s: deep dive must lower the estimate (%v vs %v)",
				c.ScreenName, c.DeepDivePct, c.FakersPct)
		}
	}
}

// fakeAuditor counts invocations and burns virtual time.
type fakeAuditor struct {
	clock   simclock.Clock
	latency time.Duration
	calls   int
	fail    bool
}

func (f *fakeAuditor) Name() string { return "fake-tool" }

func (f *fakeAuditor) Audit(screenName string) (Report, error) {
	if f.fail {
		return Report{}, errors.New("backend down")
	}
	f.calls++
	f.clock.Sleep(f.latency)
	return Report{
		Tool:       f.Name(),
		FakePct:    42,
		GenuinePct: 58,
		Elapsed:    f.latency,
		AssessedAt: f.clock.Now(),
	}, nil
}

func TestCachedAuditorMissThenHit(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	inner := &fakeAuditor{clock: clock, latency: 40 * time.Second}
	cached := NewCachedAuditor(inner, clock, time.Hour, 2*time.Second)

	first, err := cached.Audit("someone")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Elapsed != 40*time.Second {
		t.Fatalf("first = %+v", first)
	}
	second, err := cached.Audit("someone")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Elapsed != 2*time.Second || second.APICalls != 0 {
		t.Fatalf("second = %+v", second)
	}
	if second.FakePct != 42 {
		t.Fatal("cached verdict lost")
	}
	if inner.calls != 1 {
		t.Fatalf("inner called %d times, want 1", inner.calls)
	}
}

func TestCachedAuditorTTLExpiry(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	inner := &fakeAuditor{clock: clock, latency: time.Second}
	cached := NewCachedAuditor(inner, clock, time.Hour, time.Second)
	if _, err := cached.Audit("x"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	r, err := cached.Audit("x")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("expired entry served from cache")
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d, want 2", inner.calls)
	}
}

func TestCachedAuditorZeroTTLNeverExpires(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	inner := &fakeAuditor{clock: clock, latency: time.Second}
	cached := NewCachedAuditor(inner, clock, 0, 3*time.Second)
	if _, err := cached.Audit("x"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(7 * 30 * 24 * time.Hour) // seven months later
	r, err := cached.Audit("x")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Fatal("zero-TTL cache should serve forever (twitteraudit behaviour)")
	}
}

func TestCachedAuditorPrewarmAndForget(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	inner := &fakeAuditor{clock: clock, latency: 30 * time.Second}
	cached := NewCachedAuditor(inner, clock, 0, 2*time.Second)
	backdate := clock.Now().AddDate(0, -7, 0)
	if err := cached.Prewarm("vip", backdate); err != nil {
		t.Fatal(err)
	}
	r, err := cached.Audit("vip")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached || !r.AssessedAt.Equal(backdate) {
		t.Fatalf("prewarmed report = %+v", r)
	}
	cached.Forget("vip")
	r, err = cached.Audit("vip")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("Forget did not evict")
	}
}

func TestCachedAuditorPropagatesErrors(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	inner := &fakeAuditor{clock: clock, fail: true}
	cached := NewCachedAuditor(inner, clock, 0, time.Second)
	if _, err := cached.Audit("x"); err == nil {
		t.Fatal("error swallowed")
	}
	if err := cached.Prewarm("x", clock.Now()); err == nil {
		t.Fatal("prewarm error swallowed")
	}
}

func TestMixPctConversion(t *testing.T) {
	m := MixPct{Inactive: -1, Fake: 55, Genuine: 45}.Mix()
	if m.Inactive > 0.01 {
		t.Fatalf("TA-style column inactive = %v, want ≈0", m.Inactive)
	}
}
