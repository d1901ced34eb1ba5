package experiments

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/fc"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/tools/socialbakers"
	"fakeproject/internal/tools/statuspeople"
	"fakeproject/internal/tools/twitteraudit"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// materialising makes a client read profiles the way every engine did before
// the scan existed: look up every batch, keep all the materialised profiles,
// then reduce each to its view. It is the reference the scan path is
// differenced against.
type materialising struct{ twitterapi.Client }

func (m materialising) ScanProfiles(ids []twitter.UserID, fn func(twitter.ProfileView)) error {
	var profiles []twitter.Profile
	for start := 0; start < len(ids); start += twitterapi.UsersLookupBatchSize {
		batch, err := m.UsersLookup(ids[start:min(start+twitterapi.UsersLookupBatchSize, len(ids))])
		if err != nil {
			return err
		}
		profiles = append(profiles, batch...)
	}
	for _, p := range profiles {
		fn(p.View())
	}
	return nil
}

// ghostly salts every followers/ids page with ids the platform never
// issued, so the engines' lookup batches carry unknown ids (which
// users/lookup drops and the scan must skip).
type ghostly struct{ twitterapi.Client }

func (g ghostly) FollowerIDs(target twitter.UserID, cursor int64) (twitterapi.IDPage, error) {
	page, err := g.Client.FollowerIDs(target, cursor)
	if err != nil {
		return page, err
	}
	salted := make([]twitter.UserID, 0, len(page.IDs)+len(page.IDs)/13+1)
	for i, id := range page.IDs {
		if i%13 == 0 {
			salted = append(salted, twitter.UserID(1<<41)+id)
		}
		salted = append(salted, id)
	}
	page.IDs = salted
	return page, nil
}

// scanPlatform is one freshly built copy of the differential fixture: a
// target whose follower list has been through organic churn, a purchase
// burst and a purge sweep, on its own clock.
type scanPlatform struct {
	clock *simclock.Virtual
	svc   *twitterapi.Service
	url   string // the same service over HTTP, Table I limits on
}

func newScanPlatform(t *testing.T) scanPlatform {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 51)
	gen := population.NewGenerator(store, 51)
	target, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  2350,
		Layout: population.Layout{
			{Width: 700, Mix: population.Mix{Inactive: 0.2, Fake: 0.5, Genuine: 0.3}},
			{Width: 0, Mix: population.Mix{Inactive: 0.5, Fake: 0.1, Genuine: 0.4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	driver := population.NewDriver(gen, target, population.ChurnScript{
		DailyGrowth:    23,
		DailyChurnRate: 0.01,
		Events: []population.ChurnEvent{
			{Day: 2, Kind: population.ChurnPurchase, Size: 617},
			{Day: 3, Kind: population.ChurnPurge, Fraction: 0.5},
		},
	})
	for day := 0; day < 4; day++ {
		clock.Advance(24 * time.Hour)
		if _, err := driver.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := store.FollowerCount(target); n%twitterapi.UsersLookupBatchSize == 0 {
		t.Fatalf("fixture has %d followers: the last lookup batch must be a partial one", n)
	}
	removed := 0
	for _, ev := range driver.Log() {
		removed += ev.Removed
	}
	if removed == 0 {
		t.Fatal("fixture's target never lost a follower: it is not a churned one")
	}
	svc := twitterapi.NewService(store)
	srv := httptest.NewServer(twitterapi.NewServerLimits(svc, clock, twitterapi.DefaultLimits()))
	t.Cleanup(srv.Close)
	return scanPlatform{clock: clock, svc: svc, url: srv.URL}
}

// TestScanPathReportsEqualMaterialisedReports is the differential proof of
// the audit read path: for every tool over every kind of client, the report
// of an audit that scans equals, field for field — verdicts, sample size,
// API calls, virtual elapsed time, assessment instant — the report of the
// same audit over a client that materialises users/lookup batches and adapts
// them, on a churned target whose pages are salted with unknown ids and
// whose last batch is partial.
func TestScanPathReportsEqualMaterialisedReports(t *testing.T) {
	clients := map[string]func(p scanPlatform, tool string) twitterapi.Client{
		"direct": func(p scanPlatform, tool string) twitterapi.Client {
			return twitterapi.NewDirectClient(p.svc, p.clock, clientConfigs[tool])
		},
		"http": func(p scanPlatform, tool string) twitterapi.Client {
			return twitterapi.NewHTTPClient(p.url, "token-"+tool, p.clock)
		},
		"faulty": func(p scanPlatform, tool string) twitterapi.Client {
			return &faultyClient{inner: twitterapi.NewDirectClient(p.svc, p.clock, clientConfigs[tool])}
		},
	}
	model, set, err := fc.TrainDefault(52)
	if err != nil {
		t.Fatal(err)
	}
	tools := map[string]func(c twitterapi.Client, clock simclock.Clock) core.Auditor{
		ToolFC: func(c twitterapi.Client, clock simclock.Clock) core.Auditor {
			return fc.NewEngine(c, clock, model, set, fc.EngineConfig{Seed: 53})
		},
		ToolTA: func(c twitterapi.Client, clock simclock.Clock) core.Auditor { return twitteraudit.New(c, clock, 54) },
		ToolSP: func(c twitterapi.Client, clock simclock.Clock) core.Auditor {
			return statuspeople.New(c, clock, statuspeople.Config{Seed: 55})
		},
		ToolSB: func(c twitterapi.Client, clock simclock.Clock) core.Auditor { return socialbakers.New(c, clock) },
	}
	for tool, newEngine := range tools {
		for kind, newClient := range clients {
			t.Run(tool+"/"+kind, func(t *testing.T) {
				audit := func(wrap func(twitterapi.Client) twitterapi.Client) core.Report {
					p := newScanPlatform(t)
					report, err := newEngine(wrap(ghostly{newClient(p, tool)}), p.clock).Audit("subject")
					if err != nil {
						t.Fatal(err)
					}
					return report
				}
				scanned := audit(func(c twitterapi.Client) twitterapi.Client { return c })
				reference := audit(func(c twitterapi.Client) twitterapi.Client { return materialising{c} })
				if !reflect.DeepEqual(scanned, reference) {
					t.Fatalf("reports differ:\n scan      %+v\n reference %+v", scanned, reference)
				}
				if scanned.SampleSize == 0 || scanned.APICalls == 0 {
					t.Fatalf("degenerate audit: %+v", scanned)
				}
			})
		}
	}
}
