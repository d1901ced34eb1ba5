package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// The users/show id walk is held to encoding/json on bodies the API's own
// encoder renders — the store and server a node runs — over accounts whose
// screen names need every escape the encoder prints, and on whatever bytes
// the fuzzer makes of them.

// encoderNames are screen names that exercise the encoder's string
// escaping: the two-character escapes, \u00XX, U+2028 and U+2029, the
// HTML-safe < > &, and invalid UTF-8 printed as \ufffd.
var encoderNames = []string{
	"plain",
	"\"\\\b\f\n\r\t\x7f",
	"\u2028\u2029",
	"<a&b>",
	"\xff",
	"a\xc0\xafb",
	"\u00e9\xe2\x80",
	"\u2027\u202a",
	"\x00",
}

// encoderNode is one node's API server over the accounts named by
// encoderNames, every second with a last tweet (the rest omit
// last_tweet_at), all with whole-percent behaviour ratios.
type encoderNode struct{ srv http.Handler }

func newEncoderNode(tb testing.TB) *encoderNode {
	tb.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	node := &encoderNode{srv: twitterapi.NewServerLimits(twitterapi.NewService(store), clock, nil)}
	for i, name := range encoderNames {
		p := twitter.UserParams{
			CreatedAt: clock.Now().Add(-time.Duration(i) * 24 * time.Hour),
			Statuses:  37 * i, Friends: i, Followers: i * i,
			Bio: i%2 == 0, Location: i%3 == 0, URL: i%4 == 0,
			DefaultProfileImage: i%2 == 1, Protected: i%7 == 0, Verified: i%5 == 0,
			Behavior: twitter.Behavior{
				RetweetRatio: float64(i%101) / 100, LinkRatio: 0.5,
				SpamRatio: float64(i%13) / 100, DuplicateRatio: 0,
			},
		}
		p.ScreenName = name
		if i%2 == 0 {
			p.LastTweet = clock.Now().Add(-time.Duration(i) * time.Hour)
		}
		if _, err := store.CreateUser(p); err != nil {
			tb.Fatal(err)
		}
	}
	return node
}

// get answers one request as the node would, failing tb on anything but 200.
func (n *encoderNode) get(tb testing.TB, uri string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	n.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, uri, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: HTTP %d %s", uri, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// show is the node's users/show body for name.
func (n *encoderNode) show(tb testing.TB, name string) []byte {
	tb.Helper()
	return n.get(tb, pathUsersShow+"?screen_name="+queryEscape(name))
}

// encoderBodies are the fuzz seeds: the users/show body of every escaping
// account (small, so the fuzzer's minimiser stays quick), and one whose
// ratios are respelled as encoding/json spells floats outside [1e-6, 1e21)
// — the store holds whole percents, so its encoder never prints an
// exponent itself.
func encoderBodies(tb testing.TB) [][]byte {
	node := newEncoderNode(tb)
	var bodies [][]byte
	for _, name := range encoderNames {
		bodies = append(bodies, node.show(tb, name))
	}
	exp := bytes.ReplaceAll(node.show(tb, encoderNames[0]), []byte(`"link_ratio":0.5`), []byte(`"link_ratio":1e+21`))
	exp = bytes.ReplaceAll(exp, []byte(`"duplicate_ratio":0}`), []byte(`"duplicate_ratio":1e-7}`))
	if bytes.Equal(exp, bodies[0]) {
		tb.Fatal("the respelled ratios no longer match the encoder's output")
	}
	return append(bodies, exp)
}

// leadingIDJSON is leadingID's oracle: ok when body is valid JSON and one
// object whose first key is spelled exactly "id" and holds an integer with
// no fraction or exponent, read by json.Valid and a json.Decoder Token walk.
func leadingIDJSON(body []byte) (int64, bool) {
	if !json.Valid(body) {
		return 0, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, false
	}
	open := dec.InputOffset()
	if key, err := dec.Token(); err != nil || key != "id" ||
		string(bytes.TrimSpace(body[open:dec.InputOffset()])) != `"id"` {
		return 0, false
	}
	tok, err := dec.Token()
	num, isNum := tok.(json.Number)
	if err != nil || !isNum || strings.ContainsAny(string(num), ".eE") {
		return 0, false
	}
	id, err := num.Int64()
	return id, err == nil
}

// FuzzLookupSplitMatchesEncodingJSON holds leadingID to encoding/json on
// arbitrary bytes: it accepts exactly the users/show bodies the oracle
// accepts, with the same id.
func FuzzLookupSplitMatchesEncodingJSON(f *testing.F) {
	for _, b := range encoderBodies(f) {
		f.Add(b)
	}
	// Bodies no node prints, one per way the walk can accept or refuse.
	for _, b := range []string{
		` { "id" : -0 , "x" : [ 1.5e-3 , true , null , { } ] } `,
		`{"id":1,"s":"\ud800\u00e9\/\"\\\b\f\n\r\t"}` + "\n",
		`{"id":1,"ID":2}`, `{"Id":1}`, `{"x":1,"id":1}`, `{"id":"1"}`, `{}`, `[{"id":1}]`, `[]`, `null`,
		`{"id":9223372036854775807}`, `{"id":-9223372036854775808}`,
		`{"id":9223372036854775808}`, `{"id":-9223372036854775809}`,
		`{"id":1.0}`, `{"id":1e3}`, `{"id":01}`, `{"id":-}`,
		`{"id":1,"n":01}`, `{"id":1,"n":1.}`, `{"id":1,"n":1e}`, `{"id":1,"n":-}`, `{"id":1,"n":.5}`,
		"{\"id\":1,\"s\":\"a\x01\"}", `{"id":1,"s":"\x"}`, `{"id":1,"s":"\u12g4"}`, `{"id":1,"s":"a`,
		`{"id":1,"a":tru}`, `{"id":1,"a":nul}`, `{"id":1,"a" 1}`, `{"id" 1}`, `{"id":1,}`,
		`{"id":1,"a":[1 2]}`, `{"id":1,"a":{"b"}}`, `{"id":1,"a":[1,]}`, `{"id":1,"a":[{"b":[]},{}]}`,
		`{"id":1}x`, `{"id":1},`, `{"id":1} {"id":2}`, `{"id":1`, `{"id":1}}`, `{`, ``, " ",
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, err := leadingID(body)
		want, ok := leadingIDJSON(body)
		if (err == nil) != ok || ok && id != want {
			t.Fatalf("leadingID = %d, %v; encoding/json reads %d, %v\n%q", id, err, want, ok, body)
		}
	})
}

// TestSplitLookupNestingLimit pins encoding/json's nesting limit for
// leadingID, which the fuzzer cannot reach from seeds small enough to
// minimise: a value nested maxDepth deep is valid, one level more is not.
func TestSplitLookupNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		nest := strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1)
		show := []byte(`{"id":1,"d":` + nest + `}`)
		want := depth <= maxDepth
		if json.Valid(show) != want {
			t.Fatalf("encoding/json's limit moved: depth %d valid = %v", depth, json.Valid(show))
		}
		if _, err := leadingID(show); (err == nil) != want {
			t.Errorf("leadingID at depth %d: %v, want accepted = %v", depth, err, want)
		}
	}
}
