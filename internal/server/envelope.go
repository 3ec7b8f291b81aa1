package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
)

// decodeSummary parses one JSON envelope with json.Unmarshal's exact
// semantics — it accepts exactly the bodies json.Unmarshal(body, &sum)
// accepts and yields the same Summary — without running encoding/json's
// byte-at-a-time scanner over the base64 payload, which is nearly all of
// the body. It walks the top-level object once, skipping strings with
// bytes.IndexByte, to find the last member json would assign to Payload.
// When that member's key is literally "payload" and its value a string
// with no escape and no line break, the value is cut: json.Unmarshal
// reads the rest of the body with null in its place (so json still
// checks the whole document's syntax, refuses trailing data and handles
// every other field), and the cut string is decoded here with
// base64.StdEncoding, as json itself decodes a []byte. Any other shape
// goes to json.Unmarshal whole.
func decodeSummary(body []byte) (Summary, error) {
	var sum Summary
	lo, hi, ok := payloadSpan(body)
	if !ok {
		err := json.Unmarshal(body, &sum)
		return sum, err
	}
	rest := make([]byte, 0, len(body)-(hi-lo)+len("null"))
	rest = append(append(append(rest, body[:lo]...), "null"...), body[hi:]...)
	if err := json.Unmarshal(rest, &sum); err != nil {
		return sum, err
	}
	s := body[lo+1 : hi-1]
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		return sum, err
	}
	sum.Payload = b[:n]
	return sum, nil
}

// payloadSpan returns the bounds, quotes included, of the value of the
// last top-level member of body that json.Unmarshal would store in
// Summary.Payload, and ok when that value can be cut: its key is
// literally "payload" and it is a string holding no backslash (an escape
// json must read) and no CR or LF (raw control bytes json refuses and
// base64 would skip). The walk trusts json to check the syntax: it
// reports !ok on a body that is not a JSON object and stops at the first
// byte that cannot start a member, and on a malformed body the cut
// leaves the document malformed, since null is valid exactly where a
// string value is.
func payloadSpan(body []byte) (lo, hi int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] == '"'; i = skipSpace(body, i) {
		k := i
		if i = skipString(body, i); i < 0 {
			return 0, 0, false
		}
		key := body[k+1 : i-1]
		if i = skipSpace(body, i); i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		v := skipSpace(body, i+1)
		if i = skipValue(body, v); i < 0 {
			return 0, 0, false
		}
		if mayBePayload(key) {
			lo, hi = v, i
			ok = string(key) == "payload" && body[v] == '"' && bytes.IndexByte(body[v:i], '\\') < 0 &&
				bytes.IndexByte(body[v:i], '\n') < 0 && bytes.IndexByte(body[v:i], '\r') < 0
		}
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i++
		}
	}
	return lo, hi, ok
}

// mayBePayload reports whether json.Unmarshal could store a member with
// this raw key in Summary.Payload: the key case-folds to "payload", or
// json must unescape it before it matches. So a later case-variant or
// escaped key keeps json's reading. An unescaped non-ASCII key never
// matches: the only non-ASCII runes json folds to ASCII letters fold to
// k and s (U+212A, U+017F).
func mayBePayload(key []byte) bool {
	return bytes.EqualFold(key, []byte("payload")) || bytes.IndexByte(key, '\\') >= 0
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i]
// (a quote), or -1 if it is unterminated. A quote closes the string
// when an even number of backslashes precede it.
func skipString(b []byte, i int) int {
	for j := i + 1; ; j++ {
		q := bytes.IndexByte(b[j:], '"')
		if q < 0 {
			return -1
		}
		j += q
		n := 0
		for j-1-n > i && b[j-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return j + 1
		}
	}
}

// skipValue returns the index just past the value starting at b[i]: a
// string, an object or array (skipping the strings inside), or a number
// or literal, which ends at the next delimiter. It returns -1 if the
// body ends first.
func skipValue(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			if i = skipString(b, i); i < 0 || depth == 0 {
				return i
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
		i++
	}
	return -1
}
