package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// ("X" complete events; ts/dur are microseconds).
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace writes events as a Chrome trace-event JSON array,
// loadable in Perfetto or chrome://tracing. Event lanes map to thread
// ids.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X",
			TS:  float64(e.TS.Nanoseconds()) / 1e3,
			Dur: float64(e.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: e.TID, Args: e.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// jsonlEvent is the JSONL export schema: one event per line, times in
// nanoseconds.
type jsonlEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	TSNs  int64            `json:"ts_ns"`
	DurNs int64            `json:"dur_ns"`
	TID   int64            `json:"tid"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// WriteJSONL writes one JSON object per event, newline-delimited — the
// machine-readable event log for ad-hoc analysis (jq, spreadsheets).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(jsonlEvent{
			Name: e.Name, Cat: e.Cat, TSNs: e.TS.Nanoseconds(),
			DurNs: e.Dur.Nanoseconds(), TID: e.TID, Args: e.Args,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteProfile renders the aggregated profile as an aligned text
// table, ordered by total time descending: where the time went, how
// often each phase ran, and the summed counters each phase reported.
func WriteProfile(w io.Writer, t *Tracer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "profile: tracing disabled")
		return err
	}
	entries := Aggregate(t.Events())
	rows := [][]string{{"category", "name", "count", "total", "counters"}}
	for _, p := range entries {
		rows = append(rows, []string{
			p.Cat, p.Name, fmt.Sprint(p.Count), fmtDur(p.Total), fmtArgs(p.Args),
		})
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths)-1 && len(c) > widths[i] { // last column ragged
				widths[i] = len(c)
			}
		}
	}
	for ri, r := range rows {
		var sb strings.Builder
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths)-1 {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " ")); err != nil {
			return err
		}
		if ri == 0 {
			continue
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "note: %d events dropped after the %d-event buffer filled\n", d, maxEvents); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur renders a duration with millisecond precision for readability
// in profile tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtArgs renders summed counters deterministically (sorted keys).
func fmtArgs(args map[string]int64) string {
	if len(args) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, args[k])
	}
	return strings.Join(parts, " ")
}
