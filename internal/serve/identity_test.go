package serve

// CLI-vs-server byte-identity: the JSON the server returns for an explore
// request must be byte-for-byte what ExploreResultOf produces from the same
// library call made directly (which is exactly what the clairedse CLI runs).
// Pinned for the exhaustive sweep, the budgeted search and staged fidelity —
// across a fresh evaluator vs the server's warm shared engine, proving its
// caches (plans and built designs) cannot leak into results.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// directExplore runs the request against the library directly on a fresh
// evaluator — the CLI's code path — and marshals the wire projection. It
// parses the request with the low-level parsers and calls dse/search itself,
// not the server's resolution or core's funnel, so "served == library" stays
// a checked claim rather than a tautology.
func directExplore(t *testing.T, req ExploreRequest) []byte {
	t.Helper()
	cat := hw.Default()
	models := make([]*workload.Model, len(req.Models))
	for i, name := range req.Models {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	space, err := hw.ParseSpaceWith(req.Space, cat)
	if err != nil {
		t.Fatal(err)
	}
	cons := req.Constraints.resolve()
	ev := eval.New(eval.Options{})
	var fo *dse.FidelityOptions
	if req.Fidelity == "staged" {
		fopts := core.DefaultOptions()
		fopts.Catalogue = cat
		fo = &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: fopts.FidelityParams()}
	}
	var out ExploreResult
	if req.Search != "" {
		spec, err := search.ParseSpec(req.Search)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := search.New(spec, search.Options{Seed: req.Seed, Evaluator: ev, Fidelity: fo})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := opt.Run(context.Background(), models, space, cons, req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		out = ExploreResultOf(res, &tr)
	} else {
		res, err := dse.ExploreSpaceCtx(context.Background(), models, space, cons, ev, &dse.ExploreOptions{Fidelity: fo})
		if err != nil {
			t.Fatal(err)
		}
		out = ExploreResultOf(res, nil)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerMatchesCLIByteForByte(t *testing.T) {
	names := workload.Names()
	if len(names) < 2 {
		t.Fatal("need at least two workloads")
	}
	cases := []struct {
		name string
		req  ExploreRequest
	}{
		{"explore", ExploreRequest{Models: names[:2]}},
		{"explore-multi", ExploreRequest{Models: names}},
		{"search", ExploreRequest{Models: names[:2], Search: "anneal", Budget: 40, Seed: 7}},
		{"search-genetic", ExploreRequest{Models: names[:1], Search: "genetic", Budget: 48, Seed: 3}},
		{"staged", ExploreRequest{Models: names[:2], Fidelity: "staged"}},
		{"staged-search", ExploreRequest{Models: names[:1], Search: "anneal", Budget: 32, Seed: 11, Fidelity: "staged"}},
	}
	_, hs := startServer(t, ManagerConfig{Workers: 2, MaxQueue: 32})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := directExplore(t, tc.req)
			// Twice: the second pass runs on the server's warm engine, which
			// holds the first pass's plans and winners, and must still match
			// the cold direct run.
			for pass := 0; pass < 2; pass++ {
				req := tc.req
				req.Sync = true
				got := syncResult(t, hs.URL+"/v1/explore", req)
				if !bytes.Equal(bytes.TrimSpace(got), want) {
					t.Fatalf("pass %d: served result differs from direct library call:\nserver: %s\ndirect: %s",
						pass, got, want)
				}
			}
		})
	}
}

// TestServerSweepMatchesDirect pins the sweep endpoint against core.SweepSlack
// run directly with the same options.
func TestServerSweepMatchesDirect(t *testing.T) {
	name := workload.Names()[0]
	values := []float64{0.1, 0.3}

	o := core.DefaultOptions()
	o.Catalogue = hw.Default()
	o.Evaluator = eval.New(eval.Options{})
	mdl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := core.SweepSlack(mdl, o, values)
	if err != nil {
		t.Fatal(err)
	}
	want := SweepResult{Kind: "slack"}
	for _, p := range pts {
		want.Slack = append(want.Slack, SlackPoint{
			Slack: p.Slack, AreaMM2: p.AreaMM2, LatencyMS: p.LatencyMS, Feasible: p.Feasible,
		})
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	_, hs := startServer(t, ManagerConfig{Workers: 2, MaxQueue: 32})
	got := syncResult(t, hs.URL+"/v1/sweep", SweepRequest{
		Kind: "slack", Model: name, Values: values, Sync: true,
	})
	if !bytes.Equal(bytes.TrimSpace(got), wantJSON) {
		t.Fatalf("served sweep differs from direct call:\nserver: %s\ndirect: %s", got, wantJSON)
	}
}

// TestValidationErrors pins the 400 surface: unknown models, bad spaces and
// unknown fields are rejected before admission (they never consume a worker).
func TestValidationErrors(t *testing.T) {
	s, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 4})
	for _, body := range []any{
		ExploreRequest{Models: []string{"NoSuchNet"}, Sync: true},
		ExploreRequest{Models: []string{workload.Names()[0]}, Space: "bogus", Sync: true},
		ExploreRequest{Models: []string{workload.Names()[0]}, Search: "bogus", Sync: true},
		SweepRequest{Kind: "tau", Values: []float64{0.4}, Sync: true},
		map[string]any{"models": []string{"Resnet50"}, "unknown_field": 1},
	} {
		var code int
		switch body.(type) {
		case SweepRequest:
			code, _ = postJSON(t, hs.URL+"/v1/sweep", body)
		default:
			code, _ = postJSON(t, hs.URL+"/v1/explore", body)
		}
		if code != 400 {
			t.Errorf("invalid request %+v returned %d, want 400", body, code)
		}
	}
	if got := s.Manager().Metrics().Accepted.Load(); got != 0 {
		t.Errorf("invalid requests were admitted: accepted = %d, want 0", got)
	}
}

// TestOversizedBodyRejected pins the request-body cap: an explore body past
// maxBodyBytes gets 413, not the generic 400, and is never admitted.
func TestOversizedBodyRejected(t *testing.T) {
	_, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 4})
	body := `{"models":["` + strings.Repeat("A", maxBodyBytes) + `"],"sync":true}`
	resp, err := http.Post(hs.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body returned %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	var met struct {
		Accepted int64 `json:"accepted"`
	}
	if code := getJSON(t, hs.URL+"/metrics", &met); code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if met.Accepted != 0 {
		t.Errorf("oversized body was admitted: accepted = %d, want 0", met.Accepted)
	}
}
