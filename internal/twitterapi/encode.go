package twitterapi

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"fakeproject/internal/twitter"
)

//fp:hotpath

// The serving hot path, which is every response body this package writes:
// id pages, user objects, tweets and error bodies are appended into one
// pooled buffer with strconv and written in one shot — no reflection, no
// intermediate wire structs, no []int64 copy of a 5,000-ID page. fpvet's
// hotpathalloc analyzer holds this file to that. The bytes are what
// encoding/json emits for the wire shapes in httpclient.go (HTML-safe
// string escaping, its float format, a trailing newline); the test-only
// oracle in encode_oracle_test.go and FuzzEncodeMatchesEncodingJSON keep
// them so.

// timeFormat is Twitter's "created_at" wire format (Ruby date).
const timeFormat = "Mon Jan 02 15:04:05 -0700 2006"

// responseBuffer is one response body being assembled.
type responseBuffer struct{ b []byte }

// responseBuffers recycles the per-response encode buffers. Responses are
// staged in a buffer and written in one shot so the server can set
// Content-Length (keeping keep-alive connections parseable without chunking)
// and so no endpoint allocates a fresh encoder state per call.
var responseBuffers = sync.Pool{New: func() any { return new(responseBuffer) }}

// maxPooledBuffer bounds what goes back in the pool: a celebrity follower
// page is ~60KB, so anything larger is an outlier not worth retaining.
const maxPooledBuffer = 1 << 18

// newResponse takes an empty buffer from the pool; writeBuffered returns it.
func newResponse() *responseBuffer {
	buf := responseBuffers.Get().(*responseBuffer)
	buf.b = buf.b[:0]
	return buf
}

func writeBuffered(w http.ResponseWriter, status int, buf *responseBuffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.b)))
	w.WriteHeader(status)
	_, _ = w.Write(buf.b)
	if cap(buf.b) <= maxPooledBuffer {
		responseBuffers.Put(buf)
	}
}

func writeError(w http.ResponseWriter, status, code int, msg string) {
	replyError(w, newResponse(), status, code, msg)
}

// replyError answers with an error body in place of whatever buf holds.
func replyError(w http.ResponseWriter, buf *responseBuffer, status, code int, msg string) {
	b := append(buf.b[:0], `{"errors":[{"code":`...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, `,"message":`...)
	b = appendString(b, msg)
	buf.b = append(b, "}]}\n"...)
	writeBuffered(w, status, buf)
}

// An ids page is begun, filled by any number of appendIDs calls and ended:
// every ID is followed by a comma and endIDPage drops the last one.

func beginIDPage(dst []byte) []byte { return append(dst, `{"ids":[`...) }

func appendIDs(dst []byte, ids []twitter.UserID) []byte {
	for _, id := range ids {
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
	}
	return dst
}

func endIDPage(dst []byte, nextCursor int64) []byte {
	if dst[len(dst)-1] == ',' {
		dst = dst[:len(dst)-1]
	}
	dst = append(dst, `],"next_cursor":`...)
	dst = strconv.AppendInt(dst, nextCursor, 10)
	return append(dst, "}\n"...)
}

// appendIDPage appends the body of a materialised ids page.
func appendIDPage(dst []byte, page IDPage) []byte {
	return endIDPage(appendIDs(beginIDPage(dst), page.IDs), page.NextCursor)
}

// appendFollowerPage appends the followers/ids body of the page w stands at
// the start of, printing each run of the walk as the store decodes it —
// followers/ids is the fattest response on the wire (5,000 IDs ≈ 60KB of
// JSON) and the one a crawl leans on hardest.
func appendFollowerPage(dst []byte, target twitter.UserID, w *twitter.FollowerWalk) []byte {
	dst = beginIDPage(dst)
	for run := w.Next(); run != nil; run = w.Next() {
		dst = appendIDs(dst, run)
	}
	return endIDPage(dst, followerCursor(target, w.NextSeq()))
}

// unsupportedFloat is the failure of a NaN or infinite ratio, in the words
// of json.UnsupportedValueError.
type unsupportedFloat float64

func (f unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// appendUser appends one user object (the wire shape userJSON).
func appendUser(dst []byte, p *twitter.Profile) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(p.ID), 10)
	dst = append(dst, `,"screen_name":`...)
	dst = appendString(dst, p.ScreenName)
	dst = append(dst, `,"name":`...)
	dst = appendString(dst, p.Name)
	dst = append(dst, `,"created_at":`...)
	dst = appendTime(dst, p.CreatedAt)
	dst = append(dst, `,"description":`...)
	dst = appendString(dst, p.Bio)
	dst = append(dst, `,"location":`...)
	dst = appendString(dst, p.Location)
	dst = append(dst, `,"url":`...)
	dst = appendString(dst, p.URL)
	dst = append(dst, `,"followers_count":`...)
	dst = strconv.AppendInt(dst, int64(p.FollowersCount), 10)
	dst = append(dst, `,"friends_count":`...)
	dst = strconv.AppendInt(dst, int64(p.FriendsCount), 10)
	dst = append(dst, `,"statuses_count":`...)
	dst = strconv.AppendInt(dst, int64(p.StatusesCount), 10)
	dst = append(dst, `,"default_profile_image":`...)
	dst = strconv.AppendBool(dst, p.DefaultProfileImage)
	dst = append(dst, `,"protected":`...)
	dst = strconv.AppendBool(dst, p.Protected)
	dst = append(dst, `,"verified":`...)
	dst = strconv.AppendBool(dst, p.Verified)
	if !p.LastTweetAt.IsZero() {
		dst = append(dst, `,"last_tweet_at":`...)
		dst = appendTime(dst, p.LastTweetAt)
	}
	r := &p.Behavior
	for _, v := range [...]float64{r.RetweetRatio, r.LinkRatio, r.SpamRatio, r.DuplicateRatio} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, unsupportedFloat(v)
		}
	}
	dst = append(dst, `,"behavior":{"retweet_ratio":`...)
	dst = appendFloat(dst, r.RetweetRatio)
	dst = append(dst, `,"link_ratio":`...)
	dst = appendFloat(dst, r.LinkRatio)
	dst = append(dst, `,"spam_ratio":`...)
	dst = appendFloat(dst, r.SpamRatio)
	dst = append(dst, `,"duplicate_ratio":`...)
	dst = appendFloat(dst, r.DuplicateRatio)
	return append(dst, "}}"...), nil
}

// writeUser answers with one user object (users/show), or with the 500 a
// ratio JSON cannot carry earns.
func writeUser(w http.ResponseWriter, p *twitter.Profile) {
	buf := newResponse()
	var err error
	if buf.b, err = appendUser(buf.b, p); err != nil {
		replyError(w, buf, http.StatusInternalServerError, 131, err.Error())
		return
	}
	buf.b = append(buf.b, '\n')
	writeBuffered(w, http.StatusOK, buf)
}

// writeUsers answers with an array of user objects (users/lookup).
func writeUsers(w http.ResponseWriter, profiles []twitter.Profile) {
	buf := newResponse()
	buf.b = append(buf.b, '[')
	for i := range profiles {
		if i > 0 {
			buf.b = append(buf.b, ',')
		}
		var err error
		if buf.b, err = appendUser(buf.b, &profiles[i]); err != nil {
			replyError(w, buf, http.StatusInternalServerError, 131, err.Error())
			return
		}
	}
	buf.b = append(buf.b, "]\n"...)
	writeBuffered(w, http.StatusOK, buf)
}

// appendTweet appends one tweet object (the wire shape tweetJSON).
func appendTweet(dst []byte, tw *twitter.Tweet) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(tw.ID), 10)
	dst = append(dst, `,"author_id":`...)
	dst = strconv.AppendInt(dst, int64(tw.Author), 10)
	dst = append(dst, `,"created_at":`...)
	dst = appendTime(dst, tw.CreatedAt)
	dst = append(dst, `,"text":`...)
	dst = appendString(dst, tw.Text)
	dst = append(dst, `,"is_retweet":`...)
	dst = strconv.AppendBool(dst, tw.IsRetweet)
	dst = append(dst, `,"has_link":`...)
	dst = strconv.AppendBool(dst, tw.HasLink)
	dst = append(dst, `,"is_reply":`...)
	dst = strconv.AppendBool(dst, tw.IsReply)
	dst = append(dst, `,"mentions":`...)
	dst = strconv.AppendInt(dst, int64(tw.Mentions), 10)
	dst = append(dst, `,"hashtags":`...)
	dst = strconv.AppendInt(dst, int64(tw.Hashtags), 10)
	dst = append(dst, `,"source":`...)
	dst = appendString(dst, tw.Source)
	return append(dst, '}')
}

// appendTime appends t in the wire format, quoted. The layout yields
// nothing a JSON string would have to escape. A four-digit year in a zone
// of two-digit hours — every time the platform holds — is printed field by
// field; Time.AppendFormat re-parses the layout on each call, which was a
// third of a users/lookup.
func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	year, month, day := t.Date()
	_, offset := t.Zone()
	sign := byte('+')
	if offset /= 60; offset < 0 { // the layout's zone is hours and minutes
		sign, offset = '-', -offset
	}
	if year < 0 || year > 9999 || offset >= 100*60 {
		dst = t.AppendFormat(dst, timeFormat)
		return append(dst, '"')
	}
	hour, minute, sec := t.Clock()
	dst = append(dst, t.Weekday().String()[:3]...)
	dst = append(dst, ' ')
	dst = append(dst, month.String()[:3]...)
	dst = append(dst, ' ')
	dst = append2(dst, day)
	dst = append(dst, ' ')
	dst = append2(dst, hour)
	dst = append(dst, ':')
	dst = append2(dst, minute)
	dst = append(dst, ':')
	dst = append2(dst, sec)
	dst = append(dst, ' ', sign)
	dst = append2(dst, offset/60)
	dst = append2(dst, offset%60)
	dst = append(dst, ' ')
	dst = append2(dst, year/100)
	dst = append2(dst, year%100)
	return append(dst, '"')
}

// append2 appends the two decimal digits of v, 0 <= v < 100.
func append2(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/10), byte('0'+v%10))
}

// appendFloat appends a finite f as encoding/json does: the shortest
// decimal that round-trips, in exponent form only below 1e-6 and from 1e21,
// with the exponent's leading zero dropped (1e-07 → 1e-7). The ratios the
// store serves are whole percents; those come out of a table the general
// rule filled.
func appendFloat(dst []byte, f float64) []byte {
	if f >= 0 && f <= 1 {
		if c := &percents[int(f*100+0.5)]; math.Float64bits(c.v) == math.Float64bits(f) {
			return append(dst, c.text...)
		}
	}
	return appendAnyFloat(dst, f)
}

func appendAnyFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// percents holds k/100 for k = 0..100 — computed as the store computes a
// ratio from its stored percent — beside the text appendAnyFloat gives it.
var percents = func() (t [101]struct {
	v    float64
	text string
}) {
	for k := range t {
		t[k].v = float64(k) / 100
		t[k].text = string(appendAnyFloat(nil, t[k].v))
	}
	return t
}()

// jsonSafe marks the ASCII bytes encoding/json copies into a string as they
// are under its default HTML escaping: everything from space up except the
// quote, the backslash and <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as a JSON string the way encoding/json writes one:
// two-character escapes for the quote, the backslash and \b \f \n \r \t,
// \u00XX for the other control bytes and for < > &, U+2028 and U+2029
// spelled out as \u2028 and \u2029, and \ufffd in place of each byte of
// invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
