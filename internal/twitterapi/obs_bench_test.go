package twitterapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// nopWriter discards the response, so these benchmarks measure the serving
// path rather than a recorder's buffering.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// benchServers builds a plain and an observed API server over the same
// service, so the pair isolates the cost of the instrumentation.
func benchServers(tb testing.TB, followers int) (plain, observed *Server, target twitter.UserID) {
	tb.Helper()
	svc, target := benchService(tb, followers, followers+1)
	clock := simclock.Real{}
	plain = NewServerLimits(svc, clock, nil)
	observed = NewServerObserved(svc, clock, nil, metrics.NewRegistry())
	return plain, observed, target
}

func followerIDsReq(target twitter.UserID) *http.Request {
	return httptest.NewRequest("GET",
		"/1.1/followers/ids.json?user_id="+strconv.FormatInt(int64(target), 10)+"&cursor=-1", nil)
}

func benchmarkFollowerIDsHTTP(b *testing.B, server *Server, target twitter.UserID) {
	req := followerIDsReq(target)
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server.ServeHTTP(w, req)
	}
}

// BenchmarkFollowerIDsHTTP serves a full 5K follower page through the HTTP
// front end, plain versus observed: the delta is the per-request price of
// the instrumentation, which must be a handful of atomics and no
// allocations (see TestObservedOverheadZeroAlloc for the hard pin).
func BenchmarkFollowerIDsHTTP(b *testing.B) {
	plain, observed, target := benchServers(b, 20000)
	b.Run("plain", func(b *testing.B) { benchmarkFollowerIDsHTTP(b, plain, target) })
	b.Run("observed", func(b *testing.B) { benchmarkFollowerIDsHTTP(b, observed, target) })
}

// TestObservedOverheadZeroAlloc pins the acceptance bound: wrapping the
// followers/ids hot path in the metrics middleware adds zero allocations
// per request.
func TestObservedOverheadZeroAlloc(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool drops a quarter of its Puts at
		// random, so the pooled encoders' per-request counts are noise
		// (17–19 on either server at the same commit).
		t.Skip("allocation counts are not stable under -race")
	}
	plain, observed, target := benchServers(t, 20000)
	measure := func(s *Server) float64 {
		req := followerIDsReq(target)
		w := &nopWriter{h: make(http.Header)}
		s.ServeHTTP(w, req) // warm pools and lazily-built state
		return testing.AllocsPerRun(300, func() { s.ServeHTTP(w, req) })
	}
	plainAllocs := measure(plain)
	observedAllocs := measure(observed)
	if observedAllocs > plainAllocs {
		t.Errorf("observed server allocates more per request: %.1f vs %.1f plain",
			observedAllocs, plainAllocs)
	}
	t.Logf("allocs/request: plain %.1f, observed %.1f", plainAllocs, observedAllocs)
}
