package httpapi_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/httpapi"
)

// hardened boots a loopback server with explicit middleware options and a
// bare (un-tokened) http helper for asserting raw status codes and headers.
func hardened(t *testing.T, opts ...httpapi.Option) (*fleet.Manager, *httptest.Server) {
	t.Helper()
	m, err := fleet.NewManager()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(m, opts...))
	t.Cleanup(func() {
		m.Shutdown(context.Background())
		ts.Close()
	})
	return m, ts
}

func doRaw(t *testing.T, ts *httptest.Server, method, path, token string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// Mutating endpoints refuse requests without the exact bearer token; read
// endpoints and the operational pair stay open.
func TestAuthGate(t *testing.T) {
	_, ts := hardened(t, httpapi.WithAuthToken("secret"))
	body := func() io.Reader { return strings.NewReader(`{}`) }

	cases := []struct {
		name   string
		method string
		path   string
		token  string
		body   io.Reader
		want   int
	}{
		{"submit no token", http.MethodPost, "/v1/campaigns", "", body(), http.StatusUnauthorized},
		{"submit wrong token", http.MethodPost, "/v1/campaigns", "wrong", body(), http.StatusUnauthorized},
		{"submit prefix token", http.MethodPost, "/v1/campaigns", "secretX", body(), http.StatusUnauthorized},
		{"cancel no token", http.MethodDelete, "/v1/campaigns/c000001", "", nil, http.StatusUnauthorized},
		{"upload no token", http.MethodPost, "/v1/plans", "", body(), http.StatusUnauthorized},
		{"submit right token", http.MethodPost, "/v1/campaigns", "secret", body(), http.StatusBadRequest},
		{"healthz open", http.MethodGet, "/healthz", "", nil, http.StatusOK},
		{"metrics open", http.MethodGet, "/metrics", "", nil, http.StatusOK},
		{"stats open", http.MethodGet, "/stats", "", nil, http.StatusOK},
		{"list open", http.MethodGet, "/v1/campaigns", "", nil, http.StatusOK},
		{"plans open", http.MethodGet, "/v1/plans", "", nil, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doRaw(t, ts, tc.method, tc.path, tc.token, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if resp.StatusCode == http.StatusUnauthorized {
				if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
					t.Fatalf("401 without WWW-Authenticate: Bearer (got %q)", got)
				}
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Fatal("response missing X-Request-ID")
			}
		})
	}

	// 401s are permanent for the retry classifier: a wrong credential does
	// not heal with backoff.
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithToken("wrong"))
	_, err := cl.Submit(context.Background(), httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Profile: "s9234"}, Chips: httpapi.ChipSpec{Count: 1},
	})
	if err == nil || client.IsTransient(err) {
		t.Fatalf("401 classified transient (err %v)", err)
	}
}

// A client-supplied X-Request-ID is honored and echoed back.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := hardened(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "req-abc-123")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("X-Request-ID %q, want the client's req-abc-123", got)
	}
}

// The per-client token bucket returns 429 with a usable Retry-After once
// the burst is spent, and the typed client error carries the hint.
func TestRateLimit429RetryAfter(t *testing.T) {
	_, ts := hardened(t, httpapi.WithRateLimit(0.1, 1))

	if resp := doRaw(t, ts, http.MethodGet, "/stats", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request within burst: status %d", resp.StatusCode)
	}
	resp := doRaw(t, ts, http.MethodGet, "/stats", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	// The open pair is exempt: probes and scrapes never starve.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := doRaw(t, ts, http.MethodGet, path, "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s rate-limited: status %d", path, resp.StatusCode)
		}
	}

	// The typed client error is transient and carries the hint for backoff.
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	_, err = cl.Stats(context.Background())
	if !client.IsTransient(err) {
		t.Fatalf("429 not classified transient: %v", err)
	}
	if ra := client.RetryAfter(err); ra < time.Second {
		t.Fatalf("client.RetryAfter = %v, want >= 1s", ra)
	}
}

// Submissions over the bounded campaign queue get 429 + Retry-After, and
// admission recovers once the backlog settles.
func TestSubmitQueueFull429(t *testing.T) {
	// Occupy the one-slot queue with a slow campaign submitted directly on
	// the manager (backends are not expressible on the wire).
	mq, err := fleet.NewManager(fleet.WithWorkers(1), fleet.WithMaxQueuedCampaigns(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(mq, httpapi.WithAuthToken("secret")))
	t.Cleanup(func() {
		mq.Shutdown(context.Background())
		ts.Close()
	})

	camp := submitSlow(t, mq, 30)
	reqBody := `{"circuit":{"profile":"s9234"},"chips":{"count":1}}`
	resp := doRaw(t, ts, http.MethodPost, "/v1/campaigns", "secret", strings.NewReader(reqBody))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over full queue: status %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("429 Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithToken("secret"))
	var apiErr *client.APIError
	_, err = cl.Submit(context.Background(), httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Profile: "s9234"}, Chips: httpapi.ChipSpec{Count: 1},
	})
	if !errors.As(err, &apiErr) || !client.IsTransient(err) {
		t.Fatalf("queue-full submit: err %v, want transient APIError", err)
	}

	// Settle the backlog; admission opens again.
	camp.Cancel()
	if _, err := cl.WaitSettled(context.Background(), camp.ID()); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(context.Background(), httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Custom: &httpapi.CustomProfile{Name: "qtiny", FFs: 24, Gates: 200, Buffers: 3, Paths: 24}, GenSeed: 4},
		Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 2},
	})
	if err != nil {
		t.Fatalf("submit after backlog settled: %v", err)
	}
	if _, err := cl.WaitSettled(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
}

// A body over the upload cap gets 413 with the limit in the message, not a
// generic 400.
func TestUploadTooLarge413(t *testing.T) {
	_, ts := hardened(t)
	huge := bytes.NewReader(make([]byte, 64<<20+1))
	resp := doRaw(t, ts, http.MethodPost, "/v1/plans", "", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "body limit") {
		t.Fatalf("413 body does not state the cap: %s", body)
	}
	// And it is permanent for the retry classifier: the body will still be
	// too big on the next attempt.
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if _, err := cl.UploadPlan(context.Background(), make([]byte, 64<<20+1)); client.IsTransient(err) {
		t.Fatalf("413 classified transient: %v", err)
	}
}

// The aggregate of a failed campaign is a permanent 409 carrying the
// campaign error — not the old blanket 408 the coordinator would retry.
func TestAggregateFailedCampaign409(t *testing.T) {
	_, cl := newLoopback(t)
	ctx := context.Background()
	// Eps < 0 passes wire validation but fails engine construction, so the
	// campaign is accepted and then settles failed.
	st, err := cl.Submit(ctx, httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Custom: &httpapi.CustomProfile{Name: "aggf", FFs: 24, Gates: 200, Buffers: 3, Paths: 24}, GenSeed: 4},
		Config:  httpapi.ConfigSpec{Eps: -4},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Aggregate(ctx, st.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("aggregate of failed campaign: err %v, want HTTP 409", err)
	}
	if client.IsTransient(err) {
		t.Fatal("failed-campaign 409 classified transient — the coordinator would retry a permanent failure")
	}
	if !strings.Contains(apiErr.Message, "failed") {
		t.Fatalf("409 does not carry the campaign state: %q", apiErr.Message)
	}
}

// The aggregate of a cancelled campaign is the same permanent 409.
func TestAggregateCancelledCampaign409(t *testing.T) {
	m, cl := newLoopback(t, fleet.WithWorkers(2))
	ctx := context.Background()
	camp := submitSlow(t, m, 20)
	for camp.Status().ChipsDone < 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Cancel(ctx, camp.ID()); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Aggregate(ctx, camp.ID())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || client.IsTransient(err) {
		t.Fatalf("aggregate of cancelled campaign: err %v, want permanent HTTP 409", err)
	}
}

// A client abandoning its aggregate wait must not make the server write
// any status: the connection just closes (the 408 it used to write would
// poison retry classification).
func TestAggregateClientDisconnectWritesNothing(t *testing.T) {
	m, err := fleet.NewManager(fleet.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	srv := httpapi.New(m)

	camp := submitSlow(t, m, 30)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+camp.ID()+"/aggregate", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	srv.ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected aggregate wait wrote a body: %s", rec.Body.String())
	}
	camp.Cancel()
}

// A corrupt campaign-request body reports a 400 naming the decode problem
// (and an oversized one reports 413 — TestUploadTooLarge413 covers the
// shared path).
func TestSubmitCorruptBody(t *testing.T) {
	_, ts := hardened(t)
	resp := doRaw(t, ts, http.MethodPost, "/v1/campaigns", "", strings.NewReader("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "decoding campaign request") {
		t.Fatalf("400 body does not name the decode failure: %s", body)
	}
}

// /metrics moves across a campaign: chip results, batches, predict
// latencies, HTTP requests and auth failures all register, and the text
// parses as "name{labels} value" lines throughout.
func TestMetricsScrapeMoves(t *testing.T) {
	metrics := httpapi.NewMetrics()
	m, err := fleet.NewManager(fleet.WithManagerObserver(metrics.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(m,
		httpapi.WithAuthToken("secret"),
		httpapi.WithMetrics(metrics),
	))
	t.Cleanup(func() {
		m.Shutdown(context.Background())
		ts.Close()
	})
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithToken("secret"))
	ctx := context.Background()

	scrape := func() map[string]float64 {
		t.Helper()
		resp := doRaw(t, ts, http.MethodGet, "/metrics", "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("/metrics content type %q", ct)
		}
		out := map[string]float64{}
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			// Label values may contain spaces (route="GET /stats"), so the
			// value is everything after the LAST space.
			cut := strings.LastIndex(line, " ")
			if cut < 0 {
				t.Fatalf("unparseable metrics line %q", line)
			}
			name, val := line[:cut], line[cut+1:]
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			out[name] = f
		}
		return out
	}

	before := scrape()
	if before[`effitestd_chips_total{result="passed"}`] != 0 {
		t.Fatal("fresh daemon reports executed chips")
	}
	if v, ok := before["effitestd_registry_build_seconds_total"]; !ok || v != 0 {
		t.Fatalf("fresh daemon: registry_build_seconds_total = %v (present %v), want 0", v, ok)
	}

	// One unauthorized request, then a real campaign.
	if resp := doRaw(t, ts, http.MethodPost, "/v1/plans", "", strings.NewReader("x")); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("expected 401, got %d", resp.StatusCode)
	}
	st, err := cl.Submit(ctx, httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Custom: &httpapi.CustomProfile{Name: "mtiny", FFs: 24, Gates: 200, Buffers: 3, Paths: 24}, GenSeed: 4},
		Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitSettled(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	after := scrape()
	chips := after[`effitestd_chips_total{result="passed"}`] + after[`effitestd_chips_total{result="failed"}`]
	if chips != 4 {
		t.Fatalf("chips_total counted %v results for a 4-chip campaign", chips)
	}
	if after["effitestd_chips_executed_total"] != 4 {
		t.Fatalf("chips_executed_total = %v, want 4", after["effitestd_chips_executed_total"])
	}
	if after["effitestd_test_batches_total"] == 0 || after["effitestd_tester_iterations_total"] == 0 {
		t.Fatal("batch counters did not move across a campaign")
	}
	if after["effitestd_predict_duration_seconds_count"] != 4 {
		t.Fatalf("predict histogram count %v, want one observation per chip", after["effitestd_predict_duration_seconds_count"])
	}
	if before["effitestd_configure_duration_seconds_count"] != 0 || after["effitestd_configure_duration_seconds_count"] != 4 {
		t.Fatalf("configure histogram count %v → %v, want 0 → one observation per chip",
			before["effitestd_configure_duration_seconds_count"], after["effitestd_configure_duration_seconds_count"])
	}
	if after["effitestd_auth_failures_total"] != 1 {
		t.Fatalf("auth_failures_total = %v, want 1", after["effitestd_auth_failures_total"])
	}
	if after[`effitestd_campaigns{state="done"}`] != 1 {
		t.Fatalf(`campaigns{state="done"} = %v, want 1`, after[`effitestd_campaigns{state="done"}`])
	}
	if after["effitestd_http_requests_total{route=\"POST /v1/campaigns\",code=\"202\"}"] != 1 {
		t.Fatal("http_requests_total did not count the submit")
	}
	if after["effitestd_http_request_duration_seconds_count"] <= before["effitestd_http_request_duration_seconds_count"] {
		t.Fatal("request-latency histogram did not move")
	}
	// The submit was a cold registry miss: its Prepare and calibration
	// time shows up as build seconds.
	if after["effitestd_registry_misses_total"] != 1 || after["effitestd_registry_build_seconds_total"] <= 0 {
		t.Fatalf("cold submit: registry misses %v, build seconds %v; want 1 and > 0",
			after["effitestd_registry_misses_total"], after["effitestd_registry_build_seconds_total"])
	}
}
