package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
)

// The query reply's wire encoding. A result is rendered to JSON once,
// when it is matched; the cache holds those bytes, and every reply —
// hit or miss, whole or a page — is a head, a slice of them, and a tail.

// renderedRows is a query result encoded once: the JSON of every row,
// each followed by a comma, back to back in body, and where each row
// starts. Any page of the result is one sub-slice of body, so serving a
// cached result never walks the rows or runs an encoder again.
type renderedRows struct {
	body []byte
	offs []int // offs[i] = start of row i in body; offs[len(rows)] = len(body)
}

// renderRows encodes answer rows [from, to) of m the way encoding/json
// encodes a [][]string of their terms' source syntax.
func renderRows(m *match, from, to int) *renderedRows {
	r := &renderedRows{offs: make([]int, 1, to-from+1)}
	for n := 0; n < to-from; n++ {
		t := m.row(from + n)
		if n == 1 {
			// Rows of one relation run to similar lengths: size the body
			// from the first, so it neither regrows nor ends up half empty.
			r.body = slices.Grow(r.body, (to-from-1)*(len(r.body)+2))
		}
		r.body = append(r.body, '[')
		for i, v := range t {
			if i > 0 {
				r.body = append(r.body, ',')
			}
			r.body = appendJSONString(r.body, v.String())
		}
		r.body = append(r.body, ']', ',')
		r.offs = append(r.offs, len(r.body))
	}
	return r
}

func (r *renderedRows) len() int { return len(r.offs) - 1 }

// page returns the JSON array elements of rows [from, to), comma
// separated with no trailing comma. It aliases body: write it, never
// append to it.
func (r *renderedRows) page(from, to int) []byte {
	if from >= to {
		return nil
	}
	return r.body[r.offs[from] : r.offs[to]-1]
}

// size is the entry's footprint in the serve.cache_bytes gauge.
func (r *renderedRows) size() int64 { return int64(cap(r.body)) + 8*int64(cap(r.offs)) }

// appendJSONString appends s as encoding/json would encode it (HTML
// escaping on, as json.NewEncoder defaults to). Printable ASCII that
// needs no escape — nearly every constant — is copied; anything else
// takes the encoder itself, so the bytes are its bytes by construction.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeQueryReply writes resp with page standing for the elements of
// resp.Tuples (already JSON, see renderedRows.page): the exact bytes
// json.NewEncoder(w).Encode(resp) would produce had resp.Tuples held
// those rows, assembled as a small head, the page itself — cached bytes
// go to the connection uncopied — and a small tail.
func writeQueryReply(w http.ResponseWriter, resp QueryResponse, page []byte) {
	b := make([]byte, 0, 160+len(resp.Goal))
	b = append(b, `{"goal":`...)
	b = appendJSONString(b, resp.Goal)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(resp.Total), 10)
	if resp.NextCursor != "" {
		b = append(b, `,"next_cursor":`...)
		b = appendJSONString(b, resp.NextCursor)
	}
	b = append(b, `,"tuples":[`...)
	head := len(b)
	b = append(b, `],"generation":`...)
	b = strconv.AppendUint(b, resp.Generation, 10)
	if resp.Cached {
		b = append(b, `,"cached":true`...)
	}
	if resp.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, resp.Seq, 10)
	}
	b = append(b, '}', '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)+len(page)))
	w.WriteHeader(http.StatusOK)
	// Best effort to a live conn, like writeJSON.
	w.Write(b[:head]) //nolint:errcheck
	w.Write(page)     //nolint:errcheck
	w.Write(b[head:]) //nolint:errcheck
}
