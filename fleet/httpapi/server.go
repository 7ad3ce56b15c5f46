// Package httpapi serves the fleet campaign API over HTTP.
//
// The Server is an http.Handler with a two-layer middleware chain. The
// outer layer (Server.ServeHTTP) wraps every request with a request ID
// (X-Request-ID honored from the client or generated), a structured slog
// access record, and HTTP metrics; the inner layer is applied per route at
// registration time and enforces each route's policy: bearer-token auth on
// mutating endpoints (WithAuthToken), per-client token-bucket rate limits
// (WithRateLimit), and per-route I/O deadlines (WithRouteTimeouts) from
// which streaming routes — NDJSON result streams, aggregate long-polls,
// pprof profiles — are write-exempt. /healthz and /metrics bypass auth and
// rate limiting so probes and scrapes never starve.
//
// Operational endpoints ride the same chain: GET /metrics renders a
// dependency-free Prometheus text exposition (see Metrics), and WithPprof
// mounts /debug/pprof behind the auth gate.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"effitest/fleet"
)

// maxPlanUpload bounds plan-artifact and campaign-submit request bodies
// (the largest Table-1 benchmark plan is a few MB; 64 MB leaves generous
// headroom). Larger bodies get 413 with the cap in the message.
const maxPlanUpload = 64 << 20

// Server serves the fleet API over HTTP. Build it with New and mount it as
// an http.Handler; per-request state lives in the request context, so one
// Server serves any number of concurrent connections.
type Server struct {
	m   *fleet.Manager
	mux *http.ServeMux

	token   string
	limiter *rateLimiter
	metrics *Metrics
	log     *slog.Logger
	readTO  time.Duration
	writeTO time.Duration
}

// New builds the HTTP surface over a campaign manager. With no options it
// serves the bare API — no auth, no limits, logs discarded — which is what
// tests and embedded uses want; cmd/effitestd passes the production set.
func New(m *fleet.Manager, opts ...Option) *Server {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		m:       m,
		mux:     http.NewServeMux(),
		token:   o.token,
		metrics: o.metrics,
		log:     o.logger,
		readTO:  o.readTO,
		writeTO: o.writeTO,
	}
	if s.metrics == nil {
		s.metrics = NewMetrics()
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if o.rateRPS > 0 {
		s.limiter = newRateLimiter(o.rateRPS, o.rateBurst, nil)
	}

	s.handle("GET /healthz", s.health, modeOpen)
	s.handle("GET /metrics", s.serveMetrics, modeOpen)
	s.handle("GET /stats", s.stats, 0)
	s.handle("POST /v1/campaigns", s.submit, modeAuth)
	s.handle("GET /v1/campaigns", s.list, 0)
	s.handle("GET /v1/campaigns/{id}", s.status, 0)
	s.handle("GET /v1/campaigns/{id}/results", s.results, modeStream)
	s.handle("GET /v1/campaigns/{id}/aggregate", s.aggregate, modeStream)
	s.handle("DELETE /v1/campaigns/{id}", s.cancel, modeAuth)
	s.handle("POST /v1/plans", s.uploadPlan, modeAuth)
	s.handle("GET /v1/plans", s.listPlans, 0)
	s.handle("GET /v1/plans/{id}", s.downloadPlan, 0)
	if o.pprof {
		// Profiles stream for up to ?seconds=N, so they are write-exempt
		// like the result streams; the auth gate keeps heap and goroutine
		// dumps off the open network.
		s.handle("GET /debug/pprof/", pprof.Index, modeAuth|modeStream)
		s.handle("GET /debug/pprof/cmdline", pprof.Cmdline, modeAuth|modeStream)
		s.handle("GET /debug/pprof/profile", pprof.Profile, modeAuth|modeStream)
		s.handle("GET /debug/pprof/symbol", pprof.Symbol, modeAuth|modeStream)
		s.handle("GET /debug/pprof/trace", pprof.Trace, modeAuth|modeStream)
	}
	return s
}

// Metrics returns the server's metrics registry (the one passed via
// WithMetrics, or the private one built by New).
func (s *Server) Metrics() *Metrics { return s.metrics }

func writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; all we can do is make the failure visible
		// instead of silently truncating the body.
		logFrom(r.Context()).LogAttrs(r.Context(), slog.LevelWarn, "encoding response",
			slog.String("path", r.URL.Path), slog.Any("error", err))
	}
}

func writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	writeJSON(w, r, code, map[string]string{"error": err.Error()})
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	rs := s.m.Registry().Stats()
	writeJSON(w, r, http.StatusOK, Health{
		Status:    "ok",
		Workers:   s.m.Workers(),
		Campaigns: len(s.m.Campaigns()),
		Engines:   rs.Live,
		Prepares:  rs.Prepares,
	})
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, StatsWire(s.m.Registry().Stats(), s.m.Stats()))
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.render(w, s.m.Stats(), s.m.Registry().Stats())
}

// submit handles POST /v1/campaigns. The raw body is retained past
// decoding: it becomes the campaign's journal payload — the exact bytes a
// recovering daemon re-decodes through SpecDecoder — so the journal's
// notion of the spec can never drift from the API's.
//
// Idempotency: a request whose key matches a known campaign returns that
// campaign with 200 (not 409 — the duplicate is the success case: the
// client is re-asking for work the daemon already committed). Two
// concurrent first submits of one key both get the same campaign; the
// loser of that race may see 202 for it, which is harmless — the body, not
// the code, carries the campaign.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanUpload))
	if err != nil {
		code, err := bodyError("campaign request", err)
		writeError(w, r, code, err)
		return
	}
	var req CampaignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding campaign request: %w", err))
		return
	}
	if req.Key != "" {
		if err := ValidateCampaignKey(req.Key); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		if prior, ok := s.m.CampaignByKey(req.Key); ok {
			writeJSON(w, r, http.StatusOK, StatusWire(prior.Status()))
			return
		}
	}
	spec, err := req.Spec()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	spec.JournalPayload = body
	if req.PlanID != "" {
		pl, ok, err := s.m.Plans().Decode(req.PlanID)
		code, err := planLookupError(req.PlanID, !ok, err)
		if err != nil {
			writeError(w, r, code, err)
			return
		}
		spec.Plan = pl
	}
	camp, err := s.m.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, fleet.ErrManagerClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, fleet.ErrQueueFull):
			// Admission control: the backlog bound is a capacity signal, so
			// tell clients to come back, and when, rather than failing them.
			code = http.StatusTooManyRequests
			s.metrics.observeQueueRejected()
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, r, code, err)
		return
	}
	writeJSON(w, r, http.StatusAccepted, StatusWire(camp.Status()))
}

// ValidateCampaignKey checks a client-chosen idempotency key: 1–128 bytes
// of [A-Za-z0-9._-]. The bound is about hostile input, not taste — keys
// land in journal records and manager tables verbatim.
func ValidateCampaignKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("campaign key must be 1-128 characters, got %d", len(key))
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("campaign key %q: only [A-Za-z0-9._-] allowed", key)
		}
	}
	return nil
}

// bodyError maps a request-body decode failure to a status code: a body
// over the MaxBytesReader cap is 413 (with the cap stated, so the limit is
// discoverable from the error alone), anything else is a plain 400.
func bodyError(what string, err error) (int, error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s exceeds the %d-byte request body limit", what, mbe.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("decoding %s: %w", what, err)
}

// planLookupError classifies a PlanStore.Decode result. Order matters: a
// non-nil err means the plan exists but is corrupt (422) — checking missing
// first would mislabel corruption as "unknown plan" and send clients off to
// re-upload an artifact the store already has.
func planLookupError(id string, missing bool, err error) (int, error) {
	if err != nil {
		return http.StatusUnprocessableEntity, fmt.Errorf("stored plan %q is corrupt: %w", id, err)
	}
	if missing {
		return http.StatusNotFound, fmt.Errorf("unknown plan %q", id)
	}
	return 0, nil
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	camps := s.m.Campaigns()
	out := make([]CampaignStatus, 0, len(camps))
	for _, c := range camps {
		out = append(out, StatusWire(c.Status()))
	}
	writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*fleet.Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.m.Campaign(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return nil, false
	}
	return c, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.lookup(w, r); ok {
		writeJSON(w, r, http.StatusOK, StatusWire(c.Status()))
	}
}

// aggregate serves the campaign's deterministic aggregate as canonical
// indented JSON with a trailing newline — a stable byte format that CI
// jobs diff directly against golden files. It waits for the campaign to
// settle so the aggregate is final.
//
// Status-code contract (coordinators classify on it, see client.IsTransient):
// a campaign that settled failed or cancelled is a permanent condition →
// 409 with the campaign error, never a retryable code; a Wait error means
// the *caller's* context ended (client gone or server draining), so no
// status is written at all — the connection just closes.
func (s *Server) aggregate(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st, err := c.Wait(r.Context())
	if err != nil {
		return
	}
	if st.State == fleet.StateFailed || st.State == fleet.StateCancelled {
		cause := string(st.State)
		if st.Err != nil {
			cause = st.Err.Error()
		}
		writeError(w, r, http.StatusConflict,
			fmt.Errorf("campaign %s is %s: %s", st.ID, st.State, cause))
		return
	}
	ws := StatusWire(st)
	if ws.Aggregate == nil {
		ws.Aggregate = &Aggregate{}
	}
	writeJSON(w, r, http.StatusOK, ws.Aggregate)
}

// results streams the campaign's per-chip results as NDJSON in input
// order, flushing per line; the stream stays open until every chip has
// resolved (or the client disconnects). ?from=N skips the first N results,
// so a client whose stream broke resumes at its first unseen index instead
// of re-reading (and re-deduplicating) the whole prefix.
func (s *Server) results(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("invalid from %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	i := 0
	for res := range c.Results(r.Context()) {
		if i++; i <= from {
			continue
		}
		if err := enc.Encode(ResultWire(res, c.ChipFirst()+res.Index)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(w, r)
	if !ok {
		return
	}
	c.Cancel()
	writeJSON(w, r, http.StatusOK, StatusWire(c.Status()))
}

func (s *Server) uploadPlan(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanUpload))
	if err != nil {
		code, err := bodyError("plan artifact", err)
		writeError(w, r, code, err)
		return
	}
	id, err := s.m.Plans().Put(data)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, PlanRef{ID: id})
}

func (s *Server) listPlans(w http.ResponseWriter, r *http.Request) {
	ids := s.m.Plans().IDs()
	out := make([]PlanRef, 0, len(ids))
	for _, id := range ids {
		out = append(out, PlanRef{ID: id})
	}
	writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) downloadPlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.m.Plans().Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown plan %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
