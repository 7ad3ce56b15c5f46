// Package client is a thin Go client for the effitestd fleet daemon: it
// speaks the HTTP/JSON surface defined in fleet/httpapi, so a remote
// tester process (or the CLIs) can share one daemon's plan cache and
// engine pool instead of preparing circuits locally.
//
//	cl := client.New("http://127.0.0.1:8087")
//	st, _ := cl.Submit(ctx, httpapi.CampaignRequest{ ... })
//	for res, err := range cl.StreamResults(ctx, st.ID) { ... }
//	final, _ := cl.WaitSettled(ctx, st.ID)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"time"

	"effitest/fleet"
	"effitest/fleet/httpapi"
)

// Client talks to one effitestd daemon. The zero value is not usable;
// build one with New.
type Client struct {
	base  string
	hc    *http.Client
	token string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles). Note the default client has no overall
// request timeout: result streams are long-lived by design — bound
// individual calls with their contexts instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithToken sends `Authorization: Bearer <token>` on every request, for
// daemons running with auth enabled (effitestd -auth-token). The token also
// becomes the client's rate-limit identity on the daemon, so retried and
// resumed requests share one budget regardless of connection churn.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// New builds a client for the daemon at base (e.g. "http://host:8087").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiError decodes the server's {"error": ...} document into a typed
// *APIError, so callers can classify the failure (see IsTransient) instead
// of matching strings. A Retry-After header (429 responses) is carried
// through so retry policies can honor the daemon's own backoff hint.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var doc struct {
		Error string `json:"error"`
	}
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		msg = doc.Error
	}
	var retryAfter time.Duration
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: retryAfter}
}

// auth stamps the bearer token, when one is configured.
func (c *Client) auth(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// doJSON performs one request and decodes the JSON response into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (httpapi.Health, error) {
	var h httpapi.Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Stats fetches /stats: the daemon's registry counters and campaign/chip
// load gauges. The coordinator uses it for least-loaded shard placement.
func (c *Client) Stats(ctx context.Context) (httpapi.Stats, error) {
	var st httpapi.Stats
	err := c.doJSON(ctx, http.MethodGet, "/stats", nil, &st)
	return st, err
}

// Base returns the daemon base URL this client talks to.
func (c *Client) Base() string { return c.base }

// Submit submits a campaign and returns its initial (queued) status.
func (c *Client) Submit(ctx context.Context, req httpapi.CampaignRequest) (httpapi.CampaignStatus, error) {
	var st httpapi.CampaignStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/campaigns", req, &st)
	return st, err
}

// Status fetches one campaign's snapshot.
func (c *Client) Status(ctx context.Context, id string) (httpapi.CampaignStatus, error) {
	var st httpapi.CampaignStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Campaigns lists every campaign on the daemon.
func (c *Client) Campaigns(ctx context.Context) ([]httpapi.CampaignStatus, error) {
	var out []httpapi.CampaignStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/campaigns", nil, &out)
	return out, err
}

// Cancel cancels a campaign and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (httpapi.CampaignStatus, error) {
	var st httpapi.CampaignStatus
	err := c.doJSON(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Aggregate waits for the campaign to settle and returns its final
// deterministic aggregate.
func (c *Client) Aggregate(ctx context.Context, id string) (httpapi.Aggregate, error) {
	var agg httpapi.Aggregate
	err := c.doJSON(ctx, http.MethodGet, "/v1/campaigns/"+id+"/aggregate", nil, &agg)
	return agg, err
}

// StreamResults streams the campaign's per-chip results in input order,
// staying attached until every chip resolves. A transport or decode
// failure is yielded once as the second value and ends the stream.
func (c *Client) StreamResults(ctx context.Context, id string) iter.Seq2[httpapi.ChipResult, error] {
	return c.StreamResultsFrom(ctx, id, 0)
}

// StreamResultsFrom is StreamResults skipping the first `from` results: a
// consumer whose stream broke after from results resumes at its first
// unseen index instead of re-reading the prefix. The classification in
// IsTransient tells a caller whether resuming is worth attempting.
func (c *Client) StreamResultsFrom(ctx context.Context, id string, from int) iter.Seq2[httpapi.ChipResult, error] {
	return func(yield func(httpapi.ChipResult, error) bool) {
		path := c.base + "/v1/campaigns/" + id + "/results"
		if from > 0 {
			path += "?from=" + strconv.Itoa(from)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
		if err != nil {
			yield(httpapi.ChipResult{}, err)
			return
		}
		c.auth(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			yield(httpapi.ChipResult{}, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			yield(httpapi.ChipResult{}, apiError(resp))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<24) // grows from the default as long lines need
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var res httpapi.ChipResult
			if err := json.Unmarshal(line, &res); err != nil {
				yield(httpapi.ChipResult{}, fmt.Errorf("decoding result line: %w", err))
				return
			}
			if !yield(res, nil) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(httpapi.ChipResult{}, err)
		}
	}
}

// Results collects the full result stream.
func (c *Client) Results(ctx context.Context, id string) ([]httpapi.ChipResult, error) {
	var out []httpapi.ChipResult
	for res, err := range c.StreamResults(ctx, id) {
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// WaitSettled polls the campaign until it reaches a terminal state with
// every chip resolved, and returns the final status.
func (c *Client) WaitSettled(ctx context.Context, id string) (httpapi.CampaignStatus, error) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if fleet.State(st.State).Terminal() && (st.ChipsTotal == 0 || st.ChipsDone == st.ChipsTotal) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// UploadPlan uploads a binary plan artifact (effitest.EncodePlan's bytes)
// and returns its content address.
func (c *Client) UploadPlan(ctx context.Context, artifact []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/plans", bytes.NewReader(artifact))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", apiError(resp)
	}
	var ref httpapi.PlanRef
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		return "", err
	}
	return ref.ID, nil
}

// Plans lists the content addresses of every plan artifact stored on the
// daemon. A coordinator pre-pushing a plan checks this list first, so the
// artifact uploads at most once per node no matter how many campaigns
// reference it.
func (c *Client) Plans(ctx context.Context) ([]httpapi.PlanRef, error) {
	var out []httpapi.PlanRef
	err := c.doJSON(ctx, http.MethodGet, "/v1/plans", nil, &out)
	return out, err
}

// DownloadPlan fetches a stored plan artifact by content address.
func (c *Client) DownloadPlan(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/plans/"+id, nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}
