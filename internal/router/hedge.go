package router

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"

	"fakeproject/internal/metrics"
)

// Request execution: every routed request runs through do(), which knows
// three tricks for hiding a sick backend from the client:
//
//   - failover — a hard failure (transport error or 5xx) retries once on
//     the secondary holder before anything reaches the client;
//   - hedging — if the primary is merely slow, a duplicate fires at the
//     secondary after the hedge delay and the first good answer wins;
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

// do executes orig against primary, failing over and (when canHedge)
// hedging to secondary. It returns the winning upstream response; a nil
// response with an error means no backend produced an HTTP answer at all.
func (rt *Router) do(ctx context.Context, orig *http.Request, primary, secondary *backend, canHedge bool) (*upstreamResponse, error) {
	var body []byte
	if orig.Body != nil {
		body, _ = io.ReadAll(orig.Body)
		orig.Body.Close()
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	type result struct {
		resp *upstreamResponse
		err  error
		from *backend
	}
	// Buffered to the maximum attempt count so abandoned attempts never
	// block on send and the inflight WaitGroup always drains.
	resCh := make(chan result, 2)
	launch := func(b *backend) {
		rt.inflight.Add(1)
		go func() {
			defer rt.inflight.Done()
			resp, err := rt.attempt(ctx, orig, b, body)
			resCh <- result{resp, err, b}
		}()
	}

	launch(primary)
	pending := 1
	triedSecondary := secondary == nil

	var hedgeCh chan struct{}
	if canHedge && !triedSecondary && !rt.noHedge {
		hedgeCh = make(chan struct{}, 1)
		delay := rt.hedgeDelay()
		rt.inflight.Add(1)
		go func() {
			defer rt.inflight.Done()
			rt.clock.Sleep(delay)
			hedgeCh <- struct{}{}
		}()
	}
	hedged := false

	var fallback *upstreamResponse // best bad answer, relayed if nothing wins
	var lastErr error
	for pending > 0 {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if !triedSecondary && secondary.healthy.Load() {
				triedSecondary, hedged = true, true
				incr(rt.m.hedges)
				launch(secondary)
				pending++
			}
		case r := <-resCh:
			pending--
			if r.err == nil && r.resp.status < http.StatusInternalServerError {
				if hedged && r.from == secondary {
					incr(rt.m.hedgeWins)
				}
				return r.resp, nil
			}
			if r.err != nil {
				lastErr = r.err
			} else if fallback == nil {
				fallback = r.resp
			}
			if !triedSecondary {
				triedSecondary = true
				incr(rt.m.failovers)
				launch(secondary)
				pending++
			}
		}
	}
	if fallback != nil {
		// Both attempts answered 5xx: relay the backend's words rather than
		// inventing our own.
		return fallback, nil
	}
	return nil, lastErr
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
	req.Header = orig.Header.Clone()
	req.Header.Del("Connection")
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
