package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestChangesEndpoint: POST /v1/sessions/{name}/changes commits adds
// and dels as ONE batch — one maintenance pass, one sequence number —
// and a mixed batch on a negation-free program stays incremental.
func TestChangesEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/v1/sessions/default", LoadRequest{Program: tcSrc}, nil)

	var resp UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/default/changes", ChangesRequest{
		Adds: []string{"edge(c, d)", "edge(d, e)."},
		Dels: []string{"edge(a, b)"},
	}, &resp)
	if resp.Applied != 3 || resp.Ignored != 0 {
		t.Fatalf("changes = %+v, want 3 applied", resp)
	}
	if resp.Mode != "incremental" {
		t.Fatalf("mixed batch mode = %q, want incremental — mixed batches must not recompute", resp.Mode)
	}
	if resp.Seq == 0 {
		t.Fatalf("changes response carries no sequence number: %+v", resp)
	}
	if got := queryTuples(t, ts, "tc(b, Y)"); len(got) != 3 { // b c d e chain
		t.Fatalf("tc(b, Y) = %v, want 3 answers", got)
	}
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 0 {
		t.Fatalf("tc(a, Y) = %v, want none after deleting edge(a, b)", got)
	}

	// One commit, one seq: the next write is exactly one ahead.
	first := resp.Seq
	mustOK(t, ts, "POST", "/v1/sessions/default/changes", ChangesRequest{Adds: []string{"edge(e, f)"}}, &resp)
	if resp.Seq != first+1 {
		t.Fatalf("second commit seq = %d, want %d", resp.Seq, first+1)
	}

	// The legacy write routes are aliases of the same pipeline and
	// return the committed seq too.
	mustOK(t, ts, "POST", changesPath, addFacts("edge(f, g)."), &resp)
	if resp.Seq != first+2 {
		t.Fatalf("legacy insert seq = %d, want %d", resp.Seq, first+2)
	}

	// A fact on both sides of one request is ambiguous; refused.
	code := call(t, ts, "POST", "/v1/sessions/default/changes", ChangesRequest{
		Adds: []string{"edge(x, y)"},
		Dels: []string{"edge(x, y)"},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("overlapping adds/dels = %d, want 400", code)
	}
}

// TestSubscribeCursorContract: ahead cursors are 400 cursor_ahead,
// cursors below the oldest replayable sequence are 410
// cursor_truncated naming the oldest cursor still served.
func TestSubscribeCursorContract(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/v1/sessions/default", LoadRequest{Program: tcSrc}, nil)
	var upd UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/default/changes", ChangesRequest{Adds: []string{"edge(c, d)"}}, &upd)
	head := upd.Seq

	res, err := http.Get(ts.URL + fmt.Sprintf("/v1/sessions/default/subscribe?from=%d&wait=0", head+5))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest || e.Error.Code != CodeCursorAhead {
		t.Fatalf("ahead cursor = %d %q, want 400 %q", res.StatusCode, e.Error.Code, CodeCursorAhead)
	}

	// An in-memory session keeps no history: anything below head is gone.
	res, err = http.Get(ts.URL + "/v1/sessions/default/subscribe?from=0&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	e = ErrorResponse{}
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusGone || e.Error.Code != CodeCursorTruncated {
		t.Fatalf("stale cursor = %d %q, want 410 %q", res.StatusCode, e.Error.Code, CodeCursorTruncated)
	}
	if e.Error.OldestSeq != head {
		t.Fatalf("410 names oldest_seq %d, want %d", e.Error.OldestSeq, head)
	}

	if res, err = http.Get(ts.URL + "/v1/sessions/default/subscribe?from=nope"); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed cursor = %d, want 400", res.StatusCode)
	}

	if res, err = http.Get(ts.URL + "/v1/sessions/ghost/subscribe"); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", res.StatusCode)
	}
}

// TestSubscribeCheckpointTruncates: on a durable session, a checkpoint
// GCs the WAL beneath it, and a cursor below the last checkpoint is
// answered 410 with that checkpoint's sequence as the oldest cursor.
func TestSubscribeCheckpointTruncates(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, true, 1)) // checkpoint after every batch
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: tcSrc}, nil)
	var upd UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(c, d)"}}, &upd)
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(d, e)"}}, &upd)

	res, err := http.Get(ts.URL + "/v1/sessions/m/subscribe?from=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusGone || e.Error.Code != CodeCursorTruncated {
		t.Fatalf("pre-checkpoint cursor = %d %q, want 410 %q", res.StatusCode, e.Error.Code, CodeCursorTruncated)
	}
	if e.Error.OldestSeq != upd.Seq {
		t.Fatalf("410 names oldest_seq %d, want the checkpoint seq %d", e.Error.OldestSeq, upd.Seq)
	}
	// Resuming exactly at the checkpoint works: nothing newer exists,
	// so one long-poll page drains empty.
	var sub SubscribeResponse
	mustOK(t, ts, "GET", fmt.Sprintf("/v1/sessions/m/subscribe?from=%d&wait=0", upd.Seq), nil, &sub)
	if len(sub.Frames) != 0 || sub.NextFrom != upd.Seq {
		t.Fatalf("poll at head = %+v, want empty page with next_from %d", sub, upd.Seq)
	}
}

// TestSubscriberLimit: the -max-subscribers admission cap answers 429
// subscriber_limit with a Retry-After header.
func TestSubscriberLimit(t *testing.T) {
	srv := New(Config{MaxSubscribers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mustOK(t, ts, "POST", "/v1/sessions/default", LoadRequest{Program: tcSrc}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sessions/default/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber = %d, want 200", res.StatusCode)
	}
	for srv.subscribers.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	second, err := http.Get(ts.URL + "/v1/sessions/default/subscribe?wait=0")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := json.NewDecoder(second.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests || e.Error.Code != CodeSubscriberLimit {
		t.Fatalf("over-limit subscriber = %d %q, want 429 %q", second.StatusCode, e.Error.Code, CodeSubscriberLimit)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
}

// TestSubscribeLongPollCatchup: a durable session serves (from, head]
// from its WAL as one long-poll page, frames in commit order with the
// committed facts.
func TestSubscribeLongPollCatchup(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, true, 1000))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: tcSrc}, nil)
	var upd UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(c, d)"}}, &upd)
	first := upd.Seq
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{
		Adds: []string{"edge(d, e)"}, Dels: []string{"edge(a, b)"},
	}, &upd)

	var sub SubscribeResponse
	mustOK(t, ts, "GET", fmt.Sprintf("/v1/sessions/m/subscribe?from=%d&wait=0", first-1), nil, &sub)
	if len(sub.Frames) != 2 || sub.NextFrom != upd.Seq {
		t.Fatalf("catch-up page = %+v, want 2 frames to %d", sub, upd.Seq)
	}
	f0, f1 := sub.Frames[0], sub.Frames[1]
	if f0.Seq != first || len(f0.Adds) != 1 || f0.Adds[0] != "edge(c, d)" || len(f0.Dels) != 0 {
		t.Fatalf("frame %d = %+v, want adds [edge(c, d)]", first, f0)
	}
	if f1.Seq != first+1 || len(f1.Adds) != 1 || f1.Adds[0] != "edge(d, e)" ||
		len(f1.Dels) != 1 || f1.Dels[0] != "edge(a, b)" {
		t.Fatalf("frame %d = %+v, want adds [edge(d, e)] dels [edge(a, b)]", first+1, f1)
	}
}

// sseFeed wraps one open SSE subscription for tests.
type sseFeed struct {
	res    *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

func openSSE(t *testing.T, ts *httptest.Server, path string) *sseFeed {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		cancel()
		t.Fatalf("subscribe %s = %d, want 200", path, res.StatusCode)
	}
	feed := &sseFeed{res: res, br: bufio.NewReader(res.Body), cancel: cancel}
	t.Cleanup(feed.close)
	return feed
}

func (f *sseFeed) close() {
	f.res.Body.Close()
	f.cancel()
}

// next reads one delta event, skipping heartbeat comments. ok is false
// on an end event or stream close.
func (f *sseFeed) next(t *testing.T) (DeltaFrame, bool) {
	t.Helper()
	var frame DeltaFrame
	var event string
	got := false
	for {
		line, err := f.br.ReadString('\n')
		if err != nil {
			return frame, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event == "end" {
				return frame, false
			}
			if got {
				return frame, true
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "delta" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
					t.Fatalf("bad frame payload %q: %v", line, err)
				}
				got = true
			}
		}
	}
}

// TestSubscribeSSELive: the SSE stream splices disk catch-up onto the
// live feed with no gap and no duplicate, and a disconnected client
// resumes from its last event id.
func TestSubscribeSSELive(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, true, 1000))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: tcSrc}, nil)
	var upd UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(c, d)"}}, &upd)
	first := upd.Seq
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(d, e)"}}, &upd)

	feed := openSSE(t, ts, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", first-1))
	for i, want := range []uint64{first, first + 1} {
		frame, ok := feed.next(t)
		if !ok || frame.Seq != want {
			t.Fatalf("catch-up frame %d = %+v (ok=%v), want seq %d", i, frame, ok, want)
		}
	}
	// The slot was registered before catch-up was read, so a commit now
	// arrives live on the same stream.
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Dels: []string{"edge(c, d)"}}, &upd)
	frame, ok := feed.next(t)
	if !ok || frame.Seq != upd.Seq || len(frame.Dels) != 1 || frame.Dels[0] != "edge(c, d)" {
		t.Fatalf("live frame = %+v (ok=%v), want seq %d dels [edge(c, d)]", frame, ok, upd.Seq)
	}
	feed.close() // disconnect mid-stream

	// Resume from the last seen id: exactly the later frames, once.
	mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{"edge(e, f)"}}, &upd)
	resumed := openSSE(t, ts, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", frame.Seq))
	got, ok := resumed.next(t)
	if !ok || got.Seq != upd.Seq || len(got.Adds) != 1 || got.Adds[0] != "edge(e, f)" {
		t.Fatalf("resumed frame = %+v (ok=%v), want seq %d adds [edge(e, f)]", got, ok, upd.Seq)
	}
	resumed.close()
}

// TestSubscriberExactlyOnceAcrossRestart is the crash/resume e2e: a
// subscriber disconnects mid-stream, the leader dies without warning
// (its durable directory is all that survives), restarts, commits
// more — and the resumed cursor receives exactly the committed deltas
// from its position to head, no duplicates, no gaps.
func TestSubscriberExactlyOnceAcrossRestart(t *testing.T) {
	fs := testutil.NewFaultFS()
	var lastSeen uint64
	adds := []string{"edge(c, d)", "edge(d, e)", "edge(e, f)", "edge(f, g)"}
	var committed []uint64
	func() {
		srv := New(durableCfg(fs, true, 1000))
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: tcSrc}, nil)
		var upd UpdateResponse
		for _, a := range adds {
			mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{a}}, &upd)
			committed = append(committed, upd.Seq)
		}
		// Read the first two frames, then drop the connection.
		feed := openSSE(t, ts, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", committed[0]-1))
		for i := 0; i < 2; i++ {
			frame, ok := feed.next(t)
			if !ok || frame.Seq != committed[i] {
				t.Fatalf("pre-crash frame %d = %+v (ok=%v), want seq %d", i, frame, ok, committed[i])
			}
			lastSeen = frame.Seq
		}
		feed.close()
	}()

	// SIGKILL: only what reached the durable directory survives.
	srv, reports := recoverOnto(t, fs.Recovered(), true, 1000)
	if len(reports) != 1 || reports[0].ReplayedBatches != len(adds) {
		t.Fatalf("recovery reports = %+v, want one session replaying %d batches", reports, len(adds))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var upd UpdateResponse
	post2 := []string{"edge(g, h)", "edge(h, i)"}
	for _, a := range post2 {
		mustOK(t, ts, "POST", "/v1/sessions/m/changes", ChangesRequest{Adds: []string{a}}, &upd)
		committed = append(committed, upd.Seq)
	}
	wantFacts := append(append([]string(nil), adds[2:]...), post2...)

	// Resume from the pre-crash cursor: the frames must be exactly the
	// commits after lastSeen, across the restart boundary, in order.
	feed := openSSE(t, ts, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", lastSeen))
	for i, wantSeq := range committed[2:] {
		frame, ok := feed.next(t)
		if !ok {
			t.Fatalf("stream ended after %d resumed frames, want %d", i, len(committed)-2)
		}
		if frame.Seq != wantSeq {
			t.Fatalf("resumed frame %d seq = %d, want %d (dup or gap across restart)", i, frame.Seq, wantSeq)
		}
		if len(frame.Adds) != 1 || frame.Adds[0] != wantFacts[i] {
			t.Fatalf("resumed frame %d = %+v, want adds [%s]", i, frame, wantFacts[i])
		}
	}
	feed.close()
}
