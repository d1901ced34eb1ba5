package router

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/metrics"
)

// Request execution: every routed request runs through do(), which makes
// one upstream call on the goroutine serving the client and knows three
// tricks for hiding a sick backend from the client:
//
//   - failover — a hard failure (transport error or 5xx) retries once on
//     the secondary holder before anything reaches the client;
//   - hedging — if the primary is merely slow, a timer fires a duplicate at
//     the secondary after the hedge delay and the first good answer wins;
//   - pass-through otherwise — a 2xx/3xx/4xx (429 included) is the backend
//     speaking and is relayed verbatim.
//
// The hedge delay tracks the fleet: it is the observed p99 of upstream
// attempts, clamped to [hedgeMin, hedgeMax], so roughly 1% of reads hedge —
// the classic tail-at-scale dial.

// upstreamResponse is one backend's buffered answer. Bodies are small
// (bounded pages), and holding each whole before any byte reaches the
// client is what makes failover and hedging safe: a body cut short fails
// over to the replica instead of reaching the client truncated, and a
// hedge's loser can be torn down without corrupting the winner.
type upstreamResponse struct {
	status int
	header http.Header
	body   []byte
}

const (
	// hedgeDefault is the hedge delay used before enough samples accumulate.
	hedgeDefault = 10 * time.Millisecond
	// hedgeWarmup is how many upstream samples the p99 needs before it
	// drives the hedge delay.
	hedgeWarmup = 100
	// hedgeMin and hedgeMax clamp the p99-derived hedge delay.
	hedgeMin = 2 * time.Millisecond
	hedgeMax = 100 * time.Millisecond

	// maxPresize caps the buffer an upstream body's declared length
	// allocates up front; a longer or undeclared body grows as it arrives.
	maxPresize = 1 << 20
)

// do executes orig against primary on the caller's goroutine, failing over
// and (when canHedge) hedging to secondary. It returns the winning upstream
// response; a nil response with an error means no backend produced an HTTP
// answer at all.
func (rt *Router) do(ctx context.Context, orig *http.Request, primary, secondary *backend, canHedge bool) (*upstreamResponse, error) {
	var body []byte
	if orig.Body != nil && orig.Body != http.NoBody {
		body, _ = io.ReadAll(orig.Body)
		orig.Body.Close()
	}
	// Every attempt sends the client's headers, less the hop-by-hop one.
	orig.Header.Del("Connection")

	// The hedge is a timer. Whichever of the primary settling and the timer
	// firing moves h.state first decides: a settled primary keeps the hedge
	// from launching, and a launched hedge is the one secondary attempt —
	// there is no failover after it. Cancelling ctx tears down whichever
	// attempt loses, and attempt charges no health failure to a torn-down one.
	var h *hedge
	if canHedge && secondary != nil && !rt.noHedge {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		h = &hedge{}
		h.done.Add(1)
		rt.inflight.Add(1) // a fired hedge runs until its attempt settles
		h.stop = rt.clock.AfterFunc(rt.hedgeDelay(), func() {
			defer rt.inflight.Done()
			if !secondary.healthy.Load() || !h.state.CompareAndSwap(hedgeArmed, hedgeLaunched) {
				return
			}
			defer h.done.Done()
			incr(rt.m.hedges)
			h.resp, h.err = rt.attempt(ctx, orig, secondary, body)
			if good(h.resp, h.err) {
				cancel() // the hedge's answer wins: tear the primary down
			}
		})
	}
	resp, err := rt.attempt(ctx, orig, primary, body)
	var resp2 *upstreamResponse
	var err2 error
	switch {
	case h != nil && !h.state.CompareAndSwap(hedgeArmed, hedgeSettled):
		if good(resp, err) {
			return resp, nil
		}
		h.done.Wait()
		if resp2, err2 = h.resp, h.err; good(resp2, err2) {
			incr(rt.m.hedgeWins)
		}
	default:
		if h != nil && h.stop() {
			rt.inflight.Done() // the timer will never fire
		}
		if good(resp, err) || secondary == nil {
			return resp, err
		}
		incr(rt.m.failovers)
		resp2, err2 = rt.attempt(ctx, orig, secondary, body)
	}
	if good(resp2, err2) {
		return resp2, nil
	}
	// Both holders failed: relay the primary's 5xx, else the secondary's —
	// the backend's words rather than the router's own.
	switch {
	case err == nil:
		return resp, nil
	case err2 == nil:
		return resp2, nil
	}
	return nil, err
}

// hedge is the state one request's primary attempt and its hedge timer
// share. The timer writes resp and err before done; the primary reads them
// only after done, and only once state says the hedge launched.
type hedge struct {
	state atomic.Int32
	stop  func() bool // the timer's
	done  sync.WaitGroup
	resp  *upstreamResponse
	err   error
}

// hedge.state values: the timer is armed, the primary settled first, or the
// timer fired first and launched the secondary attempt.
const (
	hedgeArmed int32 = iota
	hedgeSettled
	hedgeLaunched
)

// good reports whether an attempt's outcome is one the client may see
// without a retry: an HTTP answer below 500.
func good(resp *upstreamResponse, err error) bool {
	return err == nil && resp.status < http.StatusInternalServerError
}

// attempt runs one upstream request against b, buffering the body and
// feeding latency and health bookkeeping.
func (rt *Router) attempt(ctx context.Context, orig *http.Request, b *backend, body []byte) (*upstreamResponse, error) {
	var br io.Reader
	if body != nil {
		br = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, orig.Method, b.base+orig.URL.RequestURI(), br)
	if err != nil {
		return nil, err
	}
	req.Header = orig.Header // read-only here, so attempts share it
	start := rt.clock.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		// A loser torn down after the race is decided arrives here with a
		// cancelled context; that is the router's doing, not the backend's
		// — only count failures the backend earned.
		if ctx.Err() == nil {
			rt.onResult(b, 0, err)
		}
		return nil, err
	}
	rb, err := readBody(resp)
	resp.Body.Close()
	if err != nil {
		if ctx.Err() == nil {
			rt.onResult(b, 0, err)
		}
		return nil, err
	}
	rt.m.upstream.Record(rt.clock.Now().Sub(start))
	rt.onResult(b, resp.StatusCode, nil)
	return &upstreamResponse{status: resp.StatusCode, header: resp.Header, body: rb}, nil
}

// readBody reads an upstream body whole. A node declares every body's
// length, so the body lands in one buffer of exactly that size rather than
// in io.ReadAll's doubling ones. A body shorter than declared is an error,
// as it is to io.ReadAll. An answer that carries no body (to a HEAD, whose
// declared length is that of the GET's body) reads as empty.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresize || resp.Body == http.NoBody {
		return io.ReadAll(resp.Body)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, err
	}
	return b, nil
}

// hedgeDelay picks the current hedge delay: the upstream p99 clamped to
// [hedgeMin, hedgeMax] once enough samples exist, else hedgeDefault.
func (rt *Router) hedgeDelay() time.Duration {
	h := rt.m.upstream
	if h.Count() < hedgeWarmup {
		return hedgeDefault
	}
	return min(max(h.Quantile(0.99), hedgeMin), hedgeMax)
}

// incr bumps a counter that may be nil (no registry configured).
func incr(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// drainClose discards and closes a response body so the connection can be
// reused.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
