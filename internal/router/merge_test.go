package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// The splitter is held to encoding/json on bodies the API's own encoder
// renders — the store and server a node runs — over accounts whose screen
// names need every escape the encoder prints, and on whatever bytes the
// fuzzer makes of them.

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

// encoderNode is one node's API server over n accounts, the first named by
// encoderNames, every second with a last tweet (the rest omit
// last_tweet_at), all with whole-percent behaviour ratios.
type encoderNode struct {
	ids []int64 // every account, creation order
	srv http.Handler
}

func newEncoderNode(tb testing.TB, n int) *encoderNode {
	tb.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	node := &encoderNode{srv: twitterapi.NewServerLimits(twitterapi.NewService(store), clock, nil)}
	for i := 0; i < n; i++ {
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
		if i < len(encoderNames) {
			p.ScreenName = encoderNames[i]
		}
		if i%2 == 0 {
			p.LastTweet = clock.Now().Add(-time.Duration(i) * time.Hour)
		}
		id, err := store.CreateUser(p)
		if err != nil {
			tb.Fatal(err)
		}
		node.ids = append(node.ids, int64(id))
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

// lookup is the node's users/lookup body for ids.
func (n *encoderNode) lookup(tb testing.TB, ids []int64) []byte {
	tb.Helper()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return n.get(tb, pathUsersLookup+"?user_id="+strings.Join(parts, ","))
}

// scatteredLookup is a 100-profile users/lookup split as serveLookup splits
// it over a two-node ring, each part rendered by the encoder (about 22 KB
// each), plus the single node's answer to the whole list.
func scatteredLookup(tb testing.TB) (ids []int64, groupOf []int, bodies [][]byte, single []byte) {
	tb.Helper()
	node := newEncoderNode(tb, 100)
	ids = node.ids
	ring := NewRing(DefaultSlots, 2)
	groupOf = make([]int, len(ids))
	var subs [2][]int64
	for i, id := range ids {
		groupOf[i] = ring.Owner(ring.Slot(id))
		subs[groupOf[i]] = append(subs[groupOf[i]], id)
	}
	if len(subs[0]) == 0 || len(subs[1]) == 0 {
		tb.Fatalf("ids %v do not span both ring members", ids)
	}
	bodies = [][]byte{node.lookup(tb, subs[0]), node.lookup(tb, subs[1])}
	return ids, groupOf, bodies, node.lookup(tb, ids)
}

// encoderBodies are the fuzz seeds: users/lookup bodies of the escaping
// accounts three at a time (small, so the fuzzer's minimiser stays quick),
// of unknown ids, a users/show body, and a pair whose ratios are respelled
// as encoding/json spells floats outside [1e-6, 1e21) — the store holds
// whole percents, so its encoder never prints an exponent itself.
func encoderBodies(tb testing.TB) [][]byte {
	node := newEncoderNode(tb, len(encoderNames))
	var bodies [][]byte
	for i := 0; i < len(node.ids); i += 3 {
		bodies = append(bodies, node.lookup(tb, node.ids[i:min(i+3, len(node.ids))]))
	}
	exp := bytes.ReplaceAll(node.lookup(tb, node.ids[:2]), []byte(`"link_ratio":0.5`), []byte(`"link_ratio":1e+21`))
	exp = bytes.ReplaceAll(exp, []byte(`"duplicate_ratio":0}`), []byte(`"duplicate_ratio":1e-7}`))
	return append(bodies,
		exp,
		node.lookup(tb, []int64{-1, 1 << 40}),
		node.get(tb, pathUsersShow+"?screen_name="+queryEscape(encoderNames[2])),
	)
}

// jsonElem is what encoding/json makes of one lookup element: its bytes,
// its first member's id, and how many of its members encoding/json would
// decode into a field tagged "id".
type jsonElem struct {
	raw    []byte
	id     int64
	idKeys int
}

// splitLookupJSON is splitLookup's oracle: ok when body is valid JSON, an
// array, and every element an object whose first key is spelled exactly
// "id" and holds an integer with no fraction or exponent — read by
// json.Unmarshal into []json.RawMessage and a json.Decoder Token walk.
func splitLookupJSON(body []byte) ([]jsonElem, bool) {
	if !json.Valid(body) || !bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte("[")) {
		return nil, false
	}
	var raw []json.RawMessage
	if json.Unmarshal(body, &raw) != nil {
		return nil, false
	}
	elems := make([]jsonElem, len(raw))
	for k, e := range raw {
		el, ok := leadingIDJSON(e)
		if !ok {
			return nil, false
		}
		elems[k] = el
	}
	return elems, true
}

// leadingIDJSON reads one valid JSON value as a lookup element.
func leadingIDJSON(e []byte) (jsonElem, bool) {
	el := jsonElem{raw: e, idKeys: 1}
	dec := json.NewDecoder(bytes.NewReader(e))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return el, false
	}
	open := dec.InputOffset()
	if key, err := dec.Token(); err != nil || key != "id" ||
		string(bytes.TrimSpace(e[open:dec.InputOffset()])) != `"id"` {
		return el, false
	}
	tok, err := dec.Token()
	num, isNum := tok.(json.Number)
	if err != nil || !isNum || strings.ContainsAny(string(num), ".eE") {
		return el, false
	}
	if el.id, err = num.Int64(); err != nil {
		return el, false
	}
	for {
		tok, err := dec.Token()
		if err != nil || tok == json.Delim('}') {
			return el, err == nil
		}
		// encoding/json matches a key to a field by upper-casing both.
		if key, _ := tok.(string); strings.Map(unicode.ToUpper, key) == "ID" {
			el.idKeys++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return el, false
		}
	}
}

// FuzzLookupSplitMatchesEncodingJSON holds splitLookup to encoding/json on
// arbitrary bytes: it accepts exactly the bodies the oracle accepts, with
// the same element bytes and leading ids, and leadingID reads a lone
// object the same way. On every accepted body a merge through it equals
// the JSON merge it replaced byte for byte, unless an element carries a
// second member encoding/json would decode as its id (which no node
// prints: the old merge took the last, the splice takes the first).
func FuzzLookupSplitMatchesEncodingJSON(f *testing.F) {
	for _, b := range encoderBodies(f) {
		f.Add(b)
	}
	// Bodies no node prints, one per way the walk can accept or refuse.
	for _, b := range []string{
		` [ { "id" : -0 , "x" : [ 1.5e-3 , true , null , { } ] } ] `,
		`[{"id":1,"s":"\ud800\u00e9\/\"\\\b\f\n\r\t"}]` + "\n",
		`[{"id":1,"ID":2}]`, `[{"Id":1}]`, `[{"x":1,"id":1}]`, `[{"id":"1"}]`, `[{}]`, `[[]]`, `{"id":1}`, `null`,
		`[{"id":9223372036854775807},{"id":-9223372036854775808}]`,
		`[{"id":9223372036854775808}]`, `[{"id":-9223372036854775809}]`,
		`[{"id":1.0}]`, `[{"id":1e3}]`, `[{"id":01}]`, `[{"id":-}]`,
		`[{"id":1,"n":01}]`, `[{"id":1,"n":1.}]`, `[{"id":1,"n":1e}]`, `[{"id":1,"n":-}]`, `[{"id":1,"n":.5}]`,
		"[{\"id\":1,\"s\":\"a\x01\"}]", `[{"id":1,"s":"\x"}]`, `[{"id":1,"s":"\u12g4"}]`, `[{"id":1,"s":"a`,
		`[{"id":1,"a":tru}]`, `[{"id":1,"a":nul}]`, `[{"id":1,"a" 1}]`, `[{"id" 1}]`, `[{"id":1,}]`,
		`[{"id":1,"a":[1 2]}]`, `[{"id":1,"a":{"b"}}]`, `[{"id":1,"a":[1,]}]`,
		`[{"id":1}]x`, `[{"id":1},]`, `[{"id":1} {"id":2}]`, `[{"id":1}`, `[`, ``, " ",
		`{"id":1}x`, `{"id":1} {"id":2}`, `{"id":1`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := splitLookup(body, nil)
		want, ok := splitLookupJSON(body)
		if (err == nil) != ok {
			t.Fatalf("splitLookup err = %v, encoding/json accepts = %v\n%q", err, ok, body)
		}
		lid, lerr := leadingID(body)
		var lone jsonElem
		lok := json.Valid(body)
		if lok {
			lone, lok = leadingIDJSON(body)
		}
		if (lerr == nil) != lok || lok && lid != lone.id {
			t.Fatalf("leadingID = %d, %v; encoding/json reads %d, %v\n%q", lid, lerr, lone.id, lok, body)
		}
		if !ok {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d elements, encoding/json finds %d\n%q", len(got), len(want), body)
		}
		ids := make([]int64, len(got))
		oneID := true
		for k, e := range got {
			if k > 0 && e.start <= got[k-1].end {
				t.Fatalf("element %d starts at %d, before element %d ends at %d", k, e.start, k-1, got[k-1].end)
			}
			if !bytes.Equal(body[e.start:e.end], want[k].raw) || e.id != want[k].id {
				t.Fatalf("element %d = %q id %d, encoding/json reads %q id %d",
					k, body[e.start:e.end], e.id, want[k].raw, want[k].id)
			}
			ids[k] = e.id
			oneID = oneID && want[k].idKeys == 1
		}
		groupOf := make([]int, len(ids))
		merged, err := mergeLookup(ids, groupOf, [][]byte{body})
		if err != nil {
			t.Fatalf("merge of an accepted body failed: %v", err)
		}
		if old, err := mergeLookupJSON(ids, groupOf, [][]byte{body}); oneID && (err != nil || !bytes.Equal(merged, old)) {
			t.Fatalf("merge diverged from the JSON merge (%v):\n got %q\nwant %q", err, merged, old)
		}
	})
}

// TestSplitLookupNestingLimit pins encoding/json's nesting limit, which
// the fuzzer cannot reach from seeds small enough to minimise: a value
// nested maxDepth deep is valid, one level more is not, in an element and
// in a lone object alike.
func TestSplitLookupNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		nest := strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2)
		lookup := []byte(`[{"id":1,"d":` + nest + `}]`)
		show := []byte(`{"id":1,"d":[` + nest + `]}`)
		want := depth <= maxDepth
		if json.Valid(lookup) != want || json.Valid(show) != want {
			t.Fatalf("encoding/json's limit moved: depth %d valid = %v", depth, json.Valid(lookup))
		}
		if _, err := splitLookup(lookup, nil); (err == nil) != want {
			t.Errorf("splitLookup at depth %d: %v, want accepted = %v", depth, err, want)
		}
		if _, err := leadingID(show); (err == nil) != want {
			t.Errorf("leadingID at depth %d: %v, want accepted = %v", depth, err, want)
		}
	}
}

// TestMergeLookupAllocs pins the splice's cost: a two-part, 100-profile
// merge of encoder bodies is the single node's body, the JSON merge's
// bytes, and a handful of allocations (the JSON merge made 738).
func TestMergeLookupAllocs(t *testing.T) {
	ids, groupOf, bodies, single := scatteredLookup(t)
	got, err := mergeLookup(ids, groupOf, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, single) {
		t.Fatalf("merge differs from the single node's body:\n got %s\nwant %s", got, single)
	}
	if old, err := mergeLookupJSON(ids, groupOf, bodies); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("merge differs from the JSON merge (%v)", err)
	}
	allocs := testing.AllocsPerRun(100, func() { _, _ = mergeLookup(ids, groupOf, bodies) })
	if allocs > 16 {
		t.Errorf("mergeLookup allocates %.0f times per merge, budget 16", allocs)
	}
}

// BenchmarkMergeLookup times the merge of TestMergeLookupAllocs; the
// JSON sub-benchmark is the merge it replaced.
func BenchmarkMergeLookup(b *testing.B) {
	ids, groupOf, bodies, _ := scatteredLookup(b)
	for _, bm := range []struct {
		name  string
		merge func([]int64, []int, [][]byte) ([]byte, error)
	}{{"splice", mergeLookup}, {"json", mergeLookupJSON}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bm.merge(ids, groupOf, bodies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
