package router

import (
	"errors"
	"strconv"
	"strings"
)

//fp:hotpath

// Name resolution reads a node's users/show body without decoding it. A
// node prints a user object with "id" first (appendUser in the API's
// encoder), so one validating walk finds the id. The walk accepts what
// encoding/json's Valid accepts, narrowed to that grammar; anything else
// is errBodyShape, and the name does not resolve.
// FuzzLookupSplitMatchesEncodingJSON holds it to encoding/json.

// maxDepth is encoding/json's nesting limit: Valid rejects a body whose
// arrays and objects nest deeper.
const maxDepth = 10000

var errBodyShape = errors.New("router: users/show body shape mismatch")

// leadingID returns the id of a users/show body: valid JSON, one object
// whose first member is "id" holding an int64 with no fraction or exponent.
func leadingID(b []byte) (int64, error) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return 0, errBodyShape
	}
	j := skipSpace(b, i+1)
	if len(b)-j < 4 || string(b[j:j+4]) != `"id"` {
		return 0, errBodyShape
	}
	if j = skipSpace(b, j+4); j == len(b) || b[j] != ':' {
		return 0, errBodyShape
	}
	j = skipSpace(b, j+1)
	num := scanNumber(b, j)
	if num < 0 {
		return 0, errBodyShape
	}
	// ParseInt refuses a fraction, an exponent and an overflow.
	id, err := strconv.ParseInt(string(b[j:num]), 10, 64)
	if err != nil {
		return 0, errBodyShape
	}
	// The head is read; the object is validated whole, head again included.
	if end := scanValue(b, i, 0); end < 0 || skipSpace(b, end) != len(b) {
		return 0, errBodyShape
	}
	return id, nil
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
