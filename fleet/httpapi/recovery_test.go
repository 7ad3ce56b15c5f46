package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/httpapi"
	"effitest/fleet/journal"
	"effitest/workload"
)

// postCampaign submits a raw body and returns the HTTP status code and the
// decoded campaign status, for tests that assert the 200-vs-202 contract
// the typed client deliberately papers over.
func postCampaign(t *testing.T, ts *httptest.Server, body string) (int, httpapi.CampaignStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st httpapi.CampaignStatus
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

const keyedBody = `{
	"name": "keyed",
	"key": "lot-7-retry",
	"circuit": {"custom": {"name": "k24", "ffs": 24, "gates": 200, "buffers": 3, "paths": 24}, "gen_seed": 4},
	"config": {"align": "heuristic", "quantile": 0.8413, "calib_chips": 100},
	"chips": {"seed": 5, "count": 3}
}`

// TestSubmitIdempotencyKeyHTTP pins the wire contract for client-chosen
// campaign keys: first submit 202, duplicate submit 200 with the SAME
// campaign (not 409 — a retry is not a conflict), malformed keys 400.
func TestSubmitIdempotencyKeyHTTP(t *testing.T) {
	m, err := fleet.NewManager(fleet.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(m, httpapi.WithAuthToken(testToken)))
	t.Cleanup(func() {
		m.Shutdown(context.Background())
		ts.Close()
	})

	code, first := postCampaign(t, ts, keyedBody)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", code)
	}
	// The duplicate may even carry a different body: the key wins, and the
	// caller gets the original campaign back.
	code, dup := postCampaign(t, ts, strings.Replace(keyedBody, `"keyed"`, `"keyed-retry"`, 1))
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: HTTP %d, want 200", code)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate key created campaign %s, want %s", dup.ID, first.ID)
	}

	for _, bad := range []string{
		`{"key": "has spaces", "circuit": {"profile": "s9234"}, "chips": {"count": 1}}`,
		`{"key": "` + strings.Repeat("x", 129) + `", "circuit": {"profile": "s9234"}, "chips": {"count": 1}}`,
	} {
		if code, _ := postCampaign(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("invalid key accepted with HTTP %d", code)
		}
	}
}

// TestHTTPRecoveryRoundTrip drives the full durable path through the HTTP
// surface: a keyed campaign is submitted over the wire, the journal
// "crashes" immediately (only the spec record is guaranteed on disk), and
// a second manager recovers from the directory via SpecDecoder — the
// original POST body IS the journal payload. The recovered campaign keeps
// its ID and key, finishes, and serves the identical aggregate; a client
// retrying its submit against the new process gets 200 and the original
// campaign.
func TestHTTPRecoveryRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	// Gate chip completion on the test: the manager observer runs inline on
	// the worker goroutines, so until release closes no chip can finish and
	// the campaign cannot settle its journal segment. That makes the crash
	// below deterministic — without the gate, a loaded machine can let the
	// whole 3-chip campaign finish (and settle) before Close runs.
	release := make(chan struct{})
	gate := effitest.ObserverFunc(func(e effitest.Event) {
		if _, ok := e.(effitest.ChipDoneEvent); ok {
			<-release
		}
	})
	m1, err := fleet.NewManager(fleet.WithWorkers(2), fleet.WithJournal(j1), fleet.WithManagerObserver(gate))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(httpapi.New(m1, httpapi.WithAuthToken(testToken)))
	t.Cleanup(func() {
		m1.Shutdown(context.Background())
		ts1.Close()
	})

	code, st1 := postCampaign(t, ts1, keyedBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// The crash: the settle record can no longer reach the directory. The
	// spec record was fsynced before the 202, so the campaign is recoverable
	// no matter how far execution got.
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	// Let the doomed process finish anyway: its aggregate is the reference
	// the recovered campaign must reproduce.
	camp1, ok := m1.Campaign(st1.ID)
	if !ok {
		t.Fatal("campaign missing from first manager")
	}
	ref, err := camp1.Wait(ctx)
	if err != nil || ref.State != fleet.StateDone {
		t.Fatalf("reference: %v %v", ref.State, err)
	}
	refAgg, err := cliFor(ts1).Aggregate(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Recovery boot.
	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fleet.NewManager(fleet.WithWorkers(2), fleet.WithJournal(j2))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m2.Recover(httpapi.SpecDecoder(m2.Plans()))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 1 || rs.Skipped != 0 {
		t.Fatalf("recover: %+v", rs)
	}
	ts2 := httptest.NewServer(httpapi.New(m2, httpapi.WithAuthToken(testToken)))
	t.Cleanup(func() {
		m2.Shutdown(context.Background())
		ts2.Close()
	})
	cl2 := cliFor(ts2)

	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := cl2.Status(ctx, st1.ID)
		if err != nil {
			t.Fatalf("recovered campaign %s not served: %v", st1.ID, err)
		}
		if st.State == string(fleet.StateDone) {
			break
		}
		if st.State == string(fleet.StateFailed) || st.State == string(fleet.StateCancelled) {
			t.Fatalf("recovered campaign settled %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered campaign stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	gotAgg, err := cl2.Aggregate(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAgg, refAgg) {
		t.Fatalf("recovered aggregate diverges:\nrecovered: %+v\nreference: %+v", gotAgg, refAgg)
	}

	// Idempotency survives the restart: the same keyed submit now answers
	// 200 with the recovered campaign.
	code, dup := postCampaign(t, ts2, keyedBody)
	if code != http.StatusOK || dup.ID != st1.ID {
		t.Fatalf("keyed re-submit after recovery: HTTP %d id %s, want 200 %s", code, dup.ID, st1.ID)
	}

	// And /stats reports the recovery.
	stats, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CampaignsRecovered != 1 {
		t.Fatalf("stats.CampaignsRecovered = %d, want 1", stats.CampaignsRecovered)
	}
	if stats.ChipsReplayed+stats.ChipsExecuted != 3 {
		t.Fatalf("replayed %d + executed %d != 3", stats.ChipsReplayed, stats.ChipsExecuted)
	}
	var buf bytes.Buffer
	resp, err := ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"effitest_campaigns_recovered_total 1", "effitestd_journal_segments"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// A campaign serves the same results while it runs, after it has settled
// and released its engine and chips, and after a restart has replayed them
// from the journal. Each stream must equal ResultWire of the in-process
// engine's results for the same chips, chip_index, achieved_period and the
// bounds sums included. Aging drift moves the achieved periods and clock
// binning folds them; workload.Check allows drift only on aging-drift
// campaigns, so one campaign of each type runs. The chip range starts past
// zero, so chip_index differs from index.
func TestServedResultsStableAcrossSettle(t *testing.T) {
	base := httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Netlist: wire24Netlist(t)},
		Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 8, First: 5},
	}
	var achieved []float64
	for _, res := range inProcessWire(t, base) {
		if res.Configured {
			achieved = append(achieved, res.AchievedPeriod)
		}
	}
	aged := base
	aged.Name, aged.Workload, aged.Drift = "aged", workload.TypeAgingDrift, 0.05
	binned := base
	binned.Name, binned.Workload, binned.BinEdges = "binned", workload.TypeClockBinning, binEdgesFrom(t, achieved)

	for _, req := range []httpapi.CampaignRequest{aged, binned} {
		t.Run(req.Name, func(t *testing.T) {
			want := inProcessWire(t, req)
			live, settled, replayed := servedThreeWays(t, req)
			for _, got := range []struct {
				how string
				res []httpapi.ChipResult
			}{{"live", live}, {"settled", settled}, {"replayed", replayed}} {
				if !reflect.DeepEqual(got.res, want) {
					t.Errorf("%s stream diverges from the in-process run:\nserved:     %+v\nin-process: %+v",
						got.how, got.res, want)
				}
			}
		})
	}
}

// inProcessWire runs req's chips through an in-process engine and returns
// their wire form.
func inProcessWire(t *testing.T, req httpapi.CampaignRequest) []httpapi.ChipResult {
	t.Helper()
	ctx := context.Background()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(spec.Circuit, spec.Options...)
	if err != nil {
		t.Fatal(err)
	}
	chips, err := eng.SampleChipRange(ctx, spec.ChipSeed, spec.ChipFirst, spec.ChipCount)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chips {
		chips[i] = effitest.ApplyDrift(ch, spec.Drift)
	}
	var out []httpapi.ChipResult
	for res := range eng.RunChips(ctx, chips) {
		if res.Err != nil {
			t.Fatalf("in-process chip %d: %v", res.Index, res.Err)
		}
		out = append(out, httpapi.ResultWire(res))
	}
	return out
}

// servedThreeWays serves req from a journaled daemon and collects its
// results three times: streamed while the campaign runs, re-streamed with
// ?from=0 after it settled, and streamed from a second daemon that
// recovered the journal. A gate holds the last chip until the live stream
// has every other result, and the journal "crashes" before that chip is
// recorded, so the second daemon replays all the other chips and re-runs
// only the last. The two daemons' aggregates must agree.
func servedThreeWays(t *testing.T, req httpapi.CampaignRequest) (live, settled, replayed []httpapi.ChipResult) {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	n := req.Chips.Count

	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	last := req.Chips.First + n - 1
	release := make(chan struct{})
	gate := effitest.ObserverFunc(func(e effitest.Event) {
		if d, ok := e.(effitest.ChipDoneEvent); ok && d.Chip == last {
			<-release
		}
	})
	m1, err := fleet.NewManager(fleet.WithWorkers(2), fleet.WithJournal(j1), fleet.WithManagerObserver(gate))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(httpapi.New(m1, httpapi.WithAuthToken(testToken)))
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
		m1.Shutdown(context.Background())
		ts1.Close()
	})
	cl1 := cliFor(ts1)
	st, err := cl1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	type streamed struct {
		res httpapi.ChipResult
		err error
	}
	sctx, stop := context.WithCancel(ctx)
	t.Cleanup(stop)
	ch := make(chan streamed)
	go func() {
		defer close(ch)
		for res, err := range cl1.StreamResults(sctx, st.ID) {
			select {
			case ch <- streamed{res, err}:
			case <-sctx.Done():
				return
			}
		}
	}()
	next := func() httpapi.ChipResult {
		t.Helper()
		s, ok := <-ch
		if !ok || s.err != nil {
			t.Fatalf("live stream ended early (after %d results): %v", len(live), s.err)
		}
		return s.res
	}
	for len(live) < n-1 {
		live = append(live, next())
	}
	// Every delivered chip was journaled before delivery; the crash keeps
	// the last one out of the journal.
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	released = true
	live = append(live, next())
	if s, ok := <-ch; ok {
		t.Fatalf("live stream ran past %d results: %+v", n, s)
	}

	if fin, err := cl1.WaitSettled(ctx, st.ID); err != nil || fin.State != string(fleet.StateDone) {
		t.Fatalf("campaign did not settle done: %+v, err %v", fin, err)
	}
	settled = getResults(t, ts1, st.ID+"/results?from=0")
	agg1, err := cl1.Aggregate(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fleet.NewManager(fleet.WithWorkers(2), fleet.WithJournal(j2))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(httpapi.New(m2, httpapi.WithAuthToken(testToken)))
	t.Cleanup(func() {
		m2.Shutdown(context.Background())
		ts2.Close()
	})
	rs, err := m2.Recover(httpapi.SpecDecoder(m2.Plans()))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 1 || rs.ChipsReplayed != n-1 {
		t.Fatalf("recover: %+v, want 1 campaign with %d chips to replay", rs, n-1)
	}
	cl2 := cliFor(ts2)
	if replayed, err = cl2.Results(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	agg2, err := cl2.Aggregate(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg2, agg1) {
		t.Fatalf("recovered aggregate diverges:\nrecovered: %+v\noriginal:  %+v", agg2, agg1)
	}
	return live, settled, replayed
}

// getResults GETs a campaign results URL (path relative to the campaign)
// and decodes its NDJSON lines.
func getResults(t *testing.T, ts *httptest.Server, path string) []httpapi.ChipResult {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/campaigns/" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	var out []httpapi.ChipResult
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var res httpapi.ChipResult
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}
