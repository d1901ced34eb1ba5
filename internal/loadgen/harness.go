package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The wire's follower-cursor sentinels: -1 asks for the first page, and a
// next_cursor of 0 means the walk is done.
const (
	cursorFirst int64 = -1
	cursorDone  int64 = 0
)

// newLoadClient builds the keep-alive HTTP client a harness issues load
// on: the idle pool must comfortably exceed the in-flight cap or the
// generator measures TCP handshakes instead of the server.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Target is one audit target the mixes aim at.
type Target struct {
	ID        int64
	Name      string
	Followers int
}

// Harness fronts running daemons: a twitterd-compatible API (a node or a
// routerd) and, optionally, an auditd. Every request goes over HTTP.
type Harness struct {
	// APIBase is the API base URL ("http://127.0.0.1:PORT").
	APIBase string
	// AuditBase is the auditd base URL; empty when there is none, which
	// leaves the audit-heavy mix unavailable.
	AuditBase string
	// Targets are the resolved target accounts, in the order given.
	Targets []Target

	// HTTP is the shared keep-alive client every mix issues requests on.
	HTTP *http.Client

	// accounts are the ids the mixes probe beyond the targets: every
	// target plus the followers on its first page, so probes spread over
	// the whole id space (and, behind a router, over every ring range).
	accounts []int64
}

// NewRemote fronts running daemons: api is a twitterd or routerd base URL
// (required), audit an auditd base URL (optional). Target accounts are
// resolved over the API, each with its first follower page.
func NewRemote(api, audit string, accounts []string) (*Harness, error) {
	h := &Harness{
		APIBase:   strings.TrimSuffix(api, "/"),
		AuditBase: strings.TrimSuffix(audit, "/"),
		HTTP:      newLoadClient(),
	}
	if len(accounts) == 0 {
		return nil, fmt.Errorf("remote harness needs at least one target account")
	}
	for _, name := range accounts {
		if err := h.resolve(context.Background(), name); err != nil {
			return nil, fmt.Errorf("resolving %s: %w", name, err)
		}
	}
	return h, nil
}

// resolve looks one target up and adds it, with the followers on its first
// page, to the probe pool. A throttled page (Table I budgets on the API)
// only narrows the pool.
func (h *Harness) resolve(ctx context.Context, name string) error {
	var u struct {
		ID        int64 `json:"id"`
		Followers int   `json:"followers_count"`
	}
	params := url.Values{"screen_name": {name}}
	body, err := h.get(ctx, h.APIBase+"/1.1/users/show.json?"+params.Encode(), "resolve")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &u); err != nil {
		return err
	}
	h.Targets = append(h.Targets, Target{ID: u.ID, Name: name, Followers: u.Followers})
	h.accounts = append(h.accounts, u.ID)

	body, err = h.get(ctx, h.idsURL("/1.1/followers/ids.json", u.ID, cursorFirst), "resolve")
	if errors.Is(err, ErrThrottled) {
		return nil
	}
	if err != nil {
		return err
	}
	var page struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return err
	}
	h.accounts = append(h.accounts, page.IDs...)
	return nil
}

// Close releases the harness's idle connections.
func (h *Harness) Close() {
	h.HTTP.CloseIdleConnections()
}

// get issues one GET with the harness token and classifies the outcome:
// body on 200, ErrThrottled on 429, a descriptive error otherwise.
func (h *Harness) get(ctx context.Context, rawURL, token string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	return h.do(req)
}

// post issues one POST of a JSON body, classified like get.
func (h *Harness) post(ctx context.Context, rawURL string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rawURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.do(req)
}

func (h *Harness) do(req *http.Request) ([]byte, error) {
	resp, err := h.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("closing body: %w", closeErr)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, ErrThrottled
	case resp.StatusCode >= 400:
		snippet := string(body)
		if len(snippet) > 120 {
			snippet = snippet[:120]
		}
		return nil, fmt.Errorf("HTTP %d from %s: %s", resp.StatusCode, req.URL.Path, snippet)
	}
	return body, nil
}

// idsURL builds a followers/ids or friends/ids request URL.
func (h *Harness) idsURL(path string, id, cursor int64) string {
	return h.APIBase + path + "?user_id=" + strconv.FormatInt(id, 10) +
		"&cursor=" + strconv.FormatInt(cursor, 10)
}
