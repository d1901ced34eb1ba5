package router

import (
	"errors"
	"strconv"
	"strings"
)

//fp:hotpath

// The users/lookup merge and name resolution read node bodies without
// decoding them. A node prints a user object with "id" first (appendUser
// in the API's encoder), so one validating walk finds each element's byte
// range and id, and the merge splices the ranges. The walk accepts what
// encoding/json's Valid accepts, narrowed to that grammar; anything else
// is errMergeShape, which routerd answers with its over-capacity 503.
// FuzzLookupSplitMatchesEncodingJSON holds it to encoding/json.

// lookupElem is one element of a users/lookup body: its byte range,
// whitespace excluded, and the id its first member holds.
type lookupElem struct {
	start, end int
	id         int64
}

// maxDepth is encoding/json's nesting limit: Valid rejects a body whose
// arrays and objects nest deeper.
const maxDepth = 10000

var errMergeShape = errors.New("router: merge shape mismatch")

// mergeLookup reassembles scattered users/lookup responses. ids is the
// client's full list in order, groupOf[i] the body index serving ids[i],
// bodies the per-group JSON arrays. Each backend returns, for its subset,
// an in-order subsequence (unknown IDs dropped), so the merge walks the
// client's list and takes a group's next element exactly when its id
// matches — preserving order and duplicates, never using an element
// twice, and dropping IDs no backend answered for. Elements are copied as
// the nodes printed them, so the output is a single node's bytes.
func mergeLookup(ids []int64, groupOf []int, bodies [][]byte) ([]byte, error) {
	if len(groupOf) != len(ids) {
		return nil, errMergeShape
	}
	// A node answers at most one element per id it was sent, so the
	// client's list bounds the table. Group g's untaken elements are
	// table[next[g]:end[g]].
	table := make([]lookupElem, 0, len(ids))
	next := make([]int, 2*len(bodies))
	end := next[len(bodies):]
	size := 0
	for g, body := range bodies {
		next[g] = len(table)
		var err error
		if table, err = splitLookup(body, table); err != nil {
			return nil, err
		}
		end[g] = len(table)
		size += len(body)
	}
	out := make([]byte, 1, size+1)
	out[0] = '['
	for i, id := range ids {
		g := groupOf[i]
		if g < 0 || g >= len(bodies) {
			return nil, errMergeShape
		}
		if k := next[g]; k < end[g] && table[k].id == id {
			if len(out) > 1 {
				out = append(out, ',')
			}
			out = append(out, bodies[g][table[k].start:table[k].end]...)
			next[g]++
		}
	}
	return append(out, "]\n"...), nil
}

// splitLookup appends to dst the elements of a users/lookup body, in
// order: errMergeShape unless body is valid JSON, an array, and each
// element an object led by an integer "id".
func splitLookup(body []byte, dst []lookupElem) ([]lookupElem, error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '[' {
		return dst, errMergeShape
	}
	if i = skipSpace(body, i+1); i == len(body) || body[i] != ']' {
		for {
			id, end := leadObject(body, i, 2)
			if end < 0 {
				return dst, errMergeShape
			}
			dst = append(dst, lookupElem{start: i, end: end, id: id})
			if i = skipSpace(body, end); i == len(body) || body[i] != ',' {
				break
			}
			i = skipSpace(body, i+1)
		}
	}
	if i == len(body) || body[i] != ']' || skipSpace(body, i+1) != len(body) {
		return dst, errMergeShape
	}
	return dst, nil
}

// leadingID returns the id of a users/show body, one object validated as
// splitLookup validates an element.
func leadingID(body []byte) (int64, error) {
	id, end := leadObject(body, skipSpace(body, 0), 1)
	if end < 0 || skipSpace(body, end) != len(body) {
		return 0, errMergeShape
	}
	return id, nil
}

// leadObject scans the object at b[i], nested depth deep, whose first
// member must be "id" holding an int64 with no fraction or exponent. It
// returns the id and the index just past the object, or end -1.
func leadObject(b []byte, i, depth int) (id int64, end int) {
	if i >= len(b) || b[i] != '{' {
		return 0, -1
	}
	j := skipSpace(b, i+1)
	if len(b)-j < 4 || string(b[j:j+4]) != `"id"` {
		return 0, -1
	}
	if j = skipSpace(b, j+4); j == len(b) || b[j] != ':' {
		return 0, -1
	}
	j = skipSpace(b, j+1)
	num := scanNumber(b, j)
	if num < 0 {
		return 0, -1
	}
	// ParseInt refuses a fraction, an exponent and an overflow.
	id, err := strconv.ParseInt(string(b[j:num]), 10, 64)
	if err != nil {
		return 0, -1
	}
	// The head is read; the object is validated whole, head again included.
	return id, scanValue(b, i, depth-1)
}

// scanValue scans the value at b[i], inside containers nested depth deep,
// and returns the index just past it, or -1.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch open := b[i]; open {
	case '"':
		return scanString(b, i)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	case '{', '[':
		if depth >= maxDepth {
			return -1
		}
		closer := open + 2 // '}' and ']' follow '{' and '[' by two in ASCII
		if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
			return i + 1
		}
		for {
			if open == '{' {
				if i = scanString(b, i); i < 0 {
					return -1
				}
				if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
					return -1
				}
				i = skipSpace(b, i+1)
			}
			if i = scanValue(b, i, depth+1); i < 0 {
				return -1
			}
			if i = skipSpace(b, i); i == len(b) {
				return -1
			}
			switch b[i] {
			case closer:
				return i + 1
			case ',':
				i = skipSpace(b, i+1)
			default:
				return -1
			}
		}
	}
	return scanNumber(b, i)
}

// scanString scans the string at b[i]. As in encoding/json, bytes of
// invalid UTF-8 pass; control bytes and unknown escapes do not.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case strPlain[c]:
		case c == '"':
			return i + 1
		case c == '\\' && i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
			i++
		case c == '\\' && len(b)-i > 5 && b[i+1] == 'u' &&
			isHex(b[i+2]) && isHex(b[i+3]) && isHex(b[i+4]) && isHex(b[i+5]):
			i += 5
		default:
			return -1
		}
	}
	return -1
}

// strPlain marks the bytes a string holds as they are: all but the quote,
// the backslash and the control bytes.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber scans the number at b[i] by JSON's grammar: an integer part
// with no leading zero, then an optional fraction and exponent.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := skipDigits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return -1
	}
	if j < len(b) && b[j] == '.' {
		if i, j = j+1, skipDigits(b, j+1); j == i {
			return -1
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if i, j = j, skipDigits(b, j); j == i {
			return -1
		}
	}
	return j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}
