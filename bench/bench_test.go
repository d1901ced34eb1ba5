package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"fakeproject/internal/twitter"
)

// windowsFromSteal builds one-second windows with the given steal shares.
func windowsFromSteal(shares ...float64) []window {
	t0 := time.Unix(1000, 0)
	ws := make([]window, len(shares))
	for i, s := range shares {
		ws[i] = window{Start: t0.Add(time.Duration(i) * time.Second), End: t0.Add(time.Duration(i+1) * time.Second), StealShare: s}
	}
	return ws
}

func TestWindowsOfComputesStealShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// One CPU, one-second windows: a tick of 1/100 s is 1 % of capacity.
	samples := []stealSample{{t0, 100}, {t0.Add(time.Second), 101}, {t0.Add(2 * time.Second), 126}}
	ws := windowsOf(samples, 1)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if got := ws[0].StealShare; got < 0.0099 || got > 0.0101 {
		t.Errorf("window 0 steal share = %v, want 0.01", got)
	}
	if got := ws[1].StealShare; got < 0.249 || got > 0.251 {
		t.Errorf("window 1 steal share = %v, want 0.25", got)
	}
}

func TestParseStealTicks(t *testing.T) {
	stat := []byte("cpu  2062738 0 468432 3118986 22039 0 82720 121401 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\ncpu1 1 2 3 4 5 6 7 61014 9 10\nintr 1 2 3 4 5 6 7 8 9\n")
	if got, ok := parseStealTicks(stat, 1); !ok || got != 61014 {
		t.Errorf("parseStealTicks(cpu1) = %d, %v; want 61014, true", got, ok)
	}
	if got, ok := parseStealTicks(stat, -1); !ok || got != 121401 {
		t.Errorf("parseStealTicks(aggregate) = %d, %v; want 121401, true", got, ok)
	}
	if _, ok := parseStealTicks(stat, 2); ok {
		t.Error("a CPU without a line must report no steal counter")
	}
	// A kernel older than the steal column.
	if _, ok := parseStealTicks([]byte("cpu0 1 2 3 4\n"), 0); ok {
		t.Error("short cpu line must report no steal counter")
	}
}

func TestSelectWindows(t *testing.T) {
	tests := []struct {
		name    string
		steal   []float64
		atLeast int
		want    []bool
	}{
		{"all quiet", []float64{0, 0.005, 0.01, 0}, 2, []bool{true, true, true, true}},
		{"threshold is inclusive at 1 %, exclusive above", []float64{0.01, 0.0101, 0, 0}, 2, []bool{true, false, true, true}},
		{"enough quiet windows: noisy ones are dropped", []float64{0, 0.2, 0, 0.03, 0}, 3, []bool{true, false, true, false, true}},
		{"too few quiet: the least-steal windows fill up", []float64{0.05, 0.2, 0, 0.03, 0.1, 0.02}, 3, []bool{false, false, true, true, false, true}},
		{"ties keep the earlier window", []float64{0.05, 0.05, 0.05, 0.05}, 2, []bool{true, true, false, false}},
		{"host without a steal counter: every window is quiet", []float64{0, 0, 0}, 2, []bool{true, true, true}},
	}
	for _, tc := range tests {
		if got := selectWindows(windowsFromSteal(tc.steal...), tc.atLeast); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: selected %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeStartAndCompleteRule(t *testing.T) {
	ws := windowsFromSteal(0, 0.5, 0, 0)
	selected := selectWindows(ws, 2) // windows 0, 2, 3
	at := func(ms int) time.Time { return ws[0].Start.Add(time.Duration(ms) * time.Millisecond) }
	ops := []opTiming{
		{Start: at(100), End: at(110), OK: true},   // inside window 0
		{Start: at(990), End: at(1010), OK: true},  // starts selected, completes in the noisy window
		{Start: at(1500), End: at(1510), OK: true}, // inside the noisy window
		{Start: at(1990), End: at(2030), OK: true}, // starts in the noisy window
		{Start: at(2100), End: at(2130), OK: true}, // inside window 2
		{Start: at(2990), End: at(3020), OK: true}, // window 2 into window 3: both selected
		{Start: at(3100), End: at(3200), OK: false},
		{Start: at(3990), End: at(4010), OK: true}, // completes after the last window
	}
	st := summarize(ops, ws, selected, 50*time.Millisecond)
	if st.Attempted != 8 || st.Failed != 1 {
		t.Errorf("attempted/failed = %d/%d, want 8/1", st.Attempted, st.Failed)
	}
	if st.Timed != 4 {
		t.Fatalf("timed = %d, want 4 (10, 30, 30 and 100 ms)", st.Timed)
	}
	if st.WindowsUsed != 3 || st.SelectedSeconds != 3 {
		t.Errorf("windows used = %d over %v s, want 3 over 3 s", st.WindowsUsed, st.SelectedSeconds)
	}
	if st.P50 != 30 || st.Max != 100 {
		t.Errorf("p50/max = %v/%v ms, want 30/100", st.P50, st.Max)
	}
	// The failed operation misses the limit whatever it took; it also took
	// longer, so one of four misses.
	if st.SLOMissPct != 25 {
		t.Errorf("slo miss = %v %%, want 25", st.SLOMissPct)
	}
	if want := 4.0 / 3.0; st.Throughput < want-1e-9 || st.Throughput > want+1e-9 {
		t.Errorf("throughput = %v, want %v", st.Throughput, want)
	}
	if st.QuietShare != 0.75 {
		t.Errorf("quiet share = %v, want 0.75", st.QuietShare)
	}
}

func TestClockScaleLookups(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &clockMeter{}
	// One reading every 100 ms: 1.0 throughout, one lone outlier, then 0.8.
	for i, chain := range []time.Duration{50, 50, 150, 50, 50, 62500, 62500, 62500} {
		if chain < 1000 {
			chain *= time.Microsecond
		} else {
			chain *= time.Nanosecond
		}
		m.record(t0.Add(time.Duration(i)*100*time.Millisecond), chain)
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for ms, want := range map[int]float64{-50: 1, 0: 1, 190: 1, 210: 1, 449: 1, 560: 0.8, 700: 0.8, 5000: 0.8} {
		if got := scaleAt(m.at, m.scales, at(ms)); got != want {
			t.Errorf("scaleAt(%d ms) = %v, want %v", ms, got, want)
		}
	}
	// Readings at 400 (1.0, its neighbours 1.0 and 0.8), 500, 600 and 700.
	if got, want := m.scaleOver(at(400), at(700)), (1+0.8+0.8+0.8)/4; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("scaleOver(400..700 ms) = %v, want %v", got, want)
	}
	if got := m.scaleOver(at(610), at(640)); got != 0.8 {
		t.Errorf("scaleOver an interval without a reading = %v, want the nearest reading's 0.8", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for p, want := range map[float64]float64{0: 1, 50: 6, 90: 10, 100: 11, 95: 10.5} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// testFixture has the real fixture's shape without building 1.5M accounts.
func testFixture(seed uint64) *fixture {
	fx := &fixture{Seed: seed}
	id := int64(1)
	for k := 0; k < crawlTargets; k++ {
		n := crawlTopFollowers / (k + 1)
		fx.Crawl = append(fx.Crawl, target{Name: "crawl", ID: twitter.UserID(id), Followers: n})
		id += int64(n) + 1
	}
	for k := 0; k < auditTargets; k++ {
		fx.Audit = append(fx.Audit, target{Name: "audit", ID: twitter.UserID(id), Followers: auditFollowers})
		id += auditFollowers + 1
	}
	fx.Accounts = int(id - 1)
	return fx
}

func TestCrawlStreamIsAFunctionOfTheSeed(t *testing.T) {
	head := func(seed uint64) []crawlOp {
		s := newCrawlStream(testFixture(seed))
		ops := make([]crawlOp, verifyOps)
		for i := range ops {
			ops[i] = s.next()
		}
		return ops
	}
	a, b, c := head(7), head(7), head(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed produced two different request lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same request list")
	}
	var kinds [opKinds]int
	for _, op := range a {
		kinds[op.Kind]++
	}
	for kind, share := range crawlMix {
		if got := 100 * float64(kinds[kind]) / verifyOps; got < share-4 || got > share+4 {
			t.Errorf("%s is %.1f %% of the stream, want about %v %%", opKindNames[kind], got, share)
		}
	}
}

func TestCrawlStreamWalksEndOnTheLastPage(t *testing.T) {
	fx := testFixture(1)
	s := newCrawlStream(fx)
	page := -1
	for i := 0; i < 20000; i++ {
		op := s.next()
		if op.Kind != opFollowers {
			continue
		}
		if op.Page != page+1 {
			t.Fatalf("walk jumped from page %d to %d", page, op.Page)
		}
		page = op.Page
		pages := (fx.Crawl[op.Target].Followers + followersPageSize - 1) / followersPageSize
		if op.LastPage != (op.Page == pages-1) {
			t.Fatalf("target %d page %d of %d: LastPage = %v", op.Target, op.Page, pages, op.LastPage)
		}
		if op.LastPage {
			page = -1
		}
	}
}

func TestNextCursorOf(t *testing.T) {
	for body, want := range map[string]string{
		`{"ids":[3,2,1],"next_cursor":0}` + "\n":           "0",
		`{"ids":[3,2,1],"next_cursor":-1234567890123}`:     "-1234567890123",
		`{"ids":[],"next_cursor": 42,"previous_cursor":0}`: "42",
	} {
		if got, ok := nextCursorOf([]byte(body)); !ok || got != want {
			t.Errorf("nextCursorOf(%q) = %q, %v; want %q", body, got, ok, want)
		}
	}
	if _, ok := nextCursorOf([]byte(`{"errors":[]}`)); ok {
		t.Error("a body without next_cursor must not parse")
	}
}

func TestParseProcUsage(t *testing.T) {
	status := []byte("Name:\ttwitterd\nVmPeak:\t 900000 kB\nVmHWM:\t  147456 kB\nVmRSS:\t  100000 kB\n")
	stat := []byte("4242 (a (weird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 8 0 12345 1000000 2000\n")
	u, err := parseProcUsage(status, stat)
	if err != nil {
		t.Fatal(err)
	}
	if u.PeakRSSMiB != 144 || u.RSSMiB != 97.65625 {
		t.Errorf("peak/current RSS = %v/%v MiB, want 144/97.65625", u.PeakRSSMiB, u.RSSMiB)
	}
	if u.CPUSeconds != 3 {
		t.Errorf("CPU = %v s, want 3 (250+50 ticks)", u.CPUSeconds)
	}
	if _, err := parseProcUsage([]byte("Name:\tx\n"), stat); err == nil {
		t.Error("status without VmHWM and VmRSS must be an error")
	}
}

// measuredRun is a run of workload that measured every metric in defs it is
// meant to.
func measuredRun(name string, defs []metricDef) runResult {
	wl, _ := workloadByName(name)
	res := runResult{Workload: name, Values: map[string]float64{}}
	for _, d := range defs {
		if !fromChildren(d.Name) || slices.Contains(wl.Layers, d.Name) {
			res.Values[d.Name] = 1
		}
	}
	return res
}

// TestResultMetricsRefusesWhatWasNotMeasured holds the declarations to what
// the code emits: a deleted out[...] line must fail the run, not read 0.
func TestResultMetricsRefusesWhatWasNotMeasured(t *testing.T) {
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			got, err := resultMetrics(measuredRun(wl.Name, defs), defs)
			if err != nil || len(got) != len(defs) {
				t.Fatalf("%s: %d of %d metrics, %v", wl.Name, len(got), len(defs), err)
			}
			for _, d := range defs {
				bypassed := fromChildren(d.Name) && !slices.Contains(wl.Layers, d.Name)
				if want := map[bool]float64{true: 0, false: 1}[bypassed]; got[d.Name].Value != want || got[d.Name].Unit != d.Unit {
					t.Errorf("%s: %s = %+v, want %v %s", wl.Name, d.Name, got[d.Name], want, d.Unit)
				}
				if bypassed {
					continue
				}
				res := measuredRun(wl.Name, defs)
				delete(res.Values, d.Name)
				if _, err := resultMetrics(res, defs); err == nil {
					t.Errorf("%s: a run that did not measure %s was accepted", wl.Name, d.Name)
				}
			}
		}
	}
	res := measuredRun("crawl-single", perLayer)
	res.Values["routerd.handler_mean_us"] = 1
	if _, err := resultMetrics(res, perLayer); err == nil {
		t.Error("crawl-single starts no routerd, so a routerd metric measured on it must be refused")
	}
	res = measuredRun("crawl-single", endToEnd)
	res.Values["latency_p95_ms"] = 1
	if _, err := resultMetrics(res, endToEnd); err == nil {
		t.Error("a value no declaration names must be refused")
	}
	for _, wl := range workloads {
		for _, name := range wl.Layers {
			if _, ok := unitOf(name); !ok {
				t.Errorf("%s lists %s, which is not declared", wl.Name, name)
			}
		}
	}
}

// benchmarkFile is BENCHMARK.json as far as this test reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheCode fails when a workload or metric is named
// in BENCHMARK.json and not declared by the code, or the reverse. What the
// code emits is held to the same declarations at run time: resultMetrics
// refuses an undeclared value and a declared metric that was not measured.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var fromFile, fromCode []workload
	for _, w := range file.Workloads {
		fromFile = append(fromFile, workload{Name: w.Name, Why: w.Why})
	}
	for _, w := range workloads {
		fromCode = append(fromCode, workload{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(fromFile, fromCode) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", fromFile, fromCode)
	}

	var e2e, layer []metricDef
	for _, m := range file.EndToEnd {
		e2e = append(e2e, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range file.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", layer, perLayer)
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
}
