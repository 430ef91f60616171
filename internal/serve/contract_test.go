package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
)

// contractStep is one request of the pinned API script and the
// normalized reply it must produce.
type contractStep struct {
	Op         string          `json:"op"` // load | query | changes | stats
	Program    string          `json:"program,omitempty"`
	Goal       string          `json:"goal,omitempty"`
	Adds       []string        `json:"adds,omitempty"`
	Dels       []string        `json:"dels,omitempty"`
	WantStatus int             `json:"want_status"`
	Want       json.RawMessage `json:"want"`
}

// TestAPIContract replays testdata/contract.json against a fresh server
// and requires every step to produce the recorded status and normalized
// payload. The wants were recorded from the /v1 replies of the last
// release that still served the flat aliases beside /v1, so the file
// pins behaviour across that removal; bump its version when a reply is
// meant to change.
func TestAPIContract(t *testing.T) {
	raw, err := os.ReadFile("testdata/contract.json")
	if err != nil {
		t.Fatal(err)
	}
	var script struct {
		Version int            `json:"version"`
		Steps   []contractStep `json:"steps"`
	}
	mustUnmarshal(t, raw, &script)
	if script.Version != 2 {
		t.Fatalf("contract.json version = %d, this runner speaks 2", script.Version)
	}

	ts := newTestServer(t, Config{})
	for i, step := range script.Steps {
		status, got := runContractStep(t, ts, step)
		var want any
		mustUnmarshal(t, step.Want, &want)
		if status != step.WantStatus || !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			t.Fatalf("step %d (%s): status %d, want %d\ngot:  %s\nwant: %s", i, step.Op, status, step.WantStatus, g, step.Want)
		}
	}
}

// runContractStep executes one step and returns the status plus the
// normalized rendering of the reply, decoded the way a want decodes.
func runContractStep(t *testing.T, ts *httptest.Server, step contractStep) (int, any) {
	t.Helper()
	var (
		method, path = "POST", loadPath
		req          any
	)
	switch step.Op {
	case "load":
		req = LoadRequest{Program: step.Program}
	case "query":
		path, req = queryPath, QueryRequest{Goal: step.Goal}
	case "changes":
		path, req = changesPath, ChangesRequest{Adds: step.Adds, Dels: step.Dels}
	case "stats":
		method, path = "GET", statsPath
	default:
		t.Fatalf("unknown contract op %q", step.Op)
	}

	var body json.RawMessage
	status := call(t, ts, method, path, req, &body)
	var got any
	mustUnmarshal(t, normalizeContract(t, step.Op, status, body), &got)
	return status, got
}

// normalizeContract projects a response onto the fields the contract
// pins. Errors compare by code (messages may change wording); stats
// compare the counters a client can rely on.
func normalizeContract(t *testing.T, op string, status int, body json.RawMessage) []byte {
	t.Helper()
	out := map[string]any{}
	if status != http.StatusOK {
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: non-200 without an error envelope: %s", op, body)
		}
		out["code"] = e.Error.Code
	} else {
		switch op {
		case "load":
			var r LoadResponse
			mustUnmarshal(t, body, &r)
			out["rules"] = r.Rules
			out["optimized"] = r.Optimized
			out["edb"] = r.EDBTuples
			out["idb"] = r.IDBTuples
		case "query":
			var r QueryResponse
			mustUnmarshal(t, body, &r)
			rows := make([]string, len(r.Tuples))
			for i, row := range r.Tuples {
				b, _ := json.Marshal(row)
				rows[i] = string(b)
			}
			sort.Strings(rows)
			out["goal"] = r.Goal
			out["count"] = r.Count
			out["total"] = r.Total
			out["tuples"] = rows
		case "changes":
			var r UpdateResponse
			mustUnmarshal(t, body, &r)
			out["applied"] = r.Applied
			out["ignored"] = r.Ignored
			out["mode"] = r.Mode
		case "stats":
			var r SessionStats
			mustUnmarshal(t, body, &r)
			out["rules"] = r.Rules
			out["queries"] = r.Queries
			out["changes"] = r.Changes
			out["incremental"] = r.Incremental
			out["recomputes"] = r.Recomputes
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustUnmarshal(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
}
