package httpapi

import (
	"context"
	"crypto/subtle"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Option configures the Server's production middleware (see New). The zero
// configuration serves the bare API: no auth, no rate limiting, no pprof,
// logs discarded — exactly the PR-4 surface, so embedded and test servers
// keep working unchanged.
type Option func(*serverOptions)

type serverOptions struct {
	token     string
	rateRPS   float64
	rateBurst int
	logger    *slog.Logger
	metrics   *Metrics
	pprof     bool
	readTO    time.Duration
	writeTO   time.Duration
}

// WithAuthToken enables bearer-token auth: every mutating endpoint
// (campaign submit and cancel, plan upload) and /debug/pprof requires
// `Authorization: Bearer <token>`. Read endpoints and /healthz stay open,
// so probes and dashboards need no credential. Comparison is constant-time.
func WithAuthToken(token string) Option {
	return func(o *serverOptions) { o.token = token }
}

// WithRateLimit enables per-client token-bucket rate limiting: each client
// (keyed by its bearer token when presented, else by remote address) may
// issue rps requests per second with bursts up to burst. Limited requests
// get 429 with a Retry-After header. /healthz and /metrics are exempt, so
// health probes and scrapes never starve.
func WithRateLimit(rps float64, burst int) Option {
	return func(o *serverOptions) {
		o.rateRPS = rps
		o.rateBurst = burst
	}
}

// WithLogger enables structured request logs: one slog record per request
// with the request ID, route, status, duration and client. Handlers also
// log response-encode failures through it. Without it, logs are discarded.
func WithLogger(l *slog.Logger) Option {
	return func(o *serverOptions) { o.logger = l }
}

// WithMetrics substitutes a shared metrics registry — the one whose
// Observer is wired into the manager — so HTTP middleware counters and
// chip-event counters render on one /metrics page. Without it the server
// builds a private Metrics (HTTP counters and gauges only).
func WithMetrics(mx *Metrics) Option {
	return func(o *serverOptions) { o.metrics = mx }
}

// WithPprof mounts net/http/pprof under /debug/pprof, behind the bearer
// auth gate when one is configured. Off by default.
func WithPprof() Option {
	return func(o *serverOptions) { o.pprof = true }
}

// WithRouteTimeouts applies per-route I/O deadlines: non-streaming routes
// get a read deadline of read and a write deadline of write from request
// start. Streaming and long-poll routes (result streams, aggregate waits)
// are exempt from the write deadline — they are long-lived by design — but
// still get the read deadline. Zero values leave the respective deadline
// unset. This is the per-route complement to http.Server.ReadHeaderTimeout:
// the server-wide ReadTimeout/WriteTimeout must stay zero or they would
// kill result streams.
func WithRouteTimeouts(read, write time.Duration) Option {
	return func(o *serverOptions) {
		o.readTO = read
		o.writeTO = write
	}
}

// ---- request identity and logging ----

type ctxKey int

const (
	logKey ctxKey = iota
	requestIDKey
)

// logFrom returns the request-scoped logger (carrying the request ID), or a
// discard logger outside a middleware-wrapped request.
func logFrom(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(logKey).(*slog.Logger); ok {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

// RequestIDFrom returns the request's ID — propagated from the client's
// X-Request-ID header or generated by the server — and whether one exists.
func RequestIDFrom(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(requestIDKey).(string)
	return id, ok
}

// statusWriter captures the response status and byte count while passing
// Flush through, so NDJSON streams keep flushing per line.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer for
// per-route deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// reqState carries per-request middleware state from the per-route wrapper
// back to the outer access-log/metrics layer.
type reqState struct {
	route string
}

type stateKey struct{}

// ---- auth ----

// authorized reports whether the request carries the configured bearer
// token. Only called when a token is configured.
func (s *Server) authorized(r *http.Request) bool {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(s.token)) == 1
}

// clientKey identifies the client for rate limiting: the bearer token when
// one is presented (well-behaved fleets share budgets per credential, not
// per connection), else the remote host.
func clientKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		return "tok:" + h
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// ---- rate limiting ----

// rateLimiter is a per-key token bucket: rps tokens per second, capacity
// burst. Buckets idle at full capacity are swept opportunistically, so the
// key table stays bounded by the set of recently active clients.
type rateLimiter struct {
	rps   float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rps float64, burst int, now func() time.Time) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{
		rps:     rps,
		burst:   float64(burst),
		now:     now,
		buckets: map[string]*bucket{},
	}
}

// allow takes one token from key's bucket. When the bucket is empty it
// returns false and the wait until one token refills — the Retry-After
// hint.
func (rl *rateLimiter) allow(key string) (bool, time.Duration) {
	t := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[key]
	if !ok {
		b = &bucket{tokens: rl.burst, last: t}
		rl.buckets[key] = b
	}
	b.tokens = math.Min(rl.burst, b.tokens+t.Sub(b.last).Seconds()*rl.rps)
	b.last = t
	rl.sweepLocked(t)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.rps * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets that have been idle long enough to refill
// completely — they are indistinguishable from fresh ones. At most once
// per minute, so the sweep never dominates the fast path.
func (rl *rateLimiter) sweepLocked(t time.Time) {
	if t.Before(rl.sweepAt) {
		return
	}
	rl.sweepAt = t.Add(time.Minute)
	idle := time.Duration(rl.burst / rl.rps * float64(time.Second))
	for k, b := range rl.buckets {
		if t.Sub(b.last) > idle {
			delete(rl.buckets, k)
		}
	}
}

// ---- the chain ----

// reqCounter numbers server-generated request IDs.
var reqCounter atomic.Uint64

// ServeHTTP implements http.Handler: the outer middleware layer (request
// ID, access log, HTTP metrics) around the route mux. Per-route concerns —
// auth, rate limiting, I/O deadlines — are applied by handle at
// registration time, so each route states its own policy.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-ID")
	if rid == "" || len(rid) > 128 {
		rid = fmt.Sprintf("r%08x", reqCounter.Add(1))
	}
	w.Header().Set("X-Request-ID", rid)

	st := &reqState{}
	ctx := context.WithValue(r.Context(), stateKey{}, st)
	ctx = context.WithValue(ctx, requestIDKey, rid)
	log := s.log.With("request_id", rid)
	ctx = context.WithValue(ctx, logKey, log)

	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	dur := time.Since(start)

	code := sw.code
	if code == 0 {
		// Handler wrote nothing (e.g. the client vanished mid-wait); record
		// it distinctly rather than as an implicit 200.
		code = statusClientClosed
	}
	route := st.route
	if route == "" {
		route = "unmatched"
	}
	s.metrics.observeHTTP(route, code, dur)
	log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("route", route),
		slog.Int("status", code),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", dur),
		slog.String("remote", r.RemoteAddr),
	)
}

// statusClientClosed labels requests that ended without a response write —
// nginx's convention for "client closed request".
const statusClientClosed = 499

// routeMode flags per-route middleware policy.
type routeMode int

const (
	// modeOpen: no auth, no rate limit (health probes, metrics scrapes).
	modeOpen routeMode = 1 << iota
	// modeAuth: requires the bearer token when one is configured.
	modeAuth
	// modeStream: long-lived response (NDJSON stream, aggregate long-poll);
	// exempt from the per-route write deadline.
	modeStream
)

// handle registers pattern with the per-route middleware implied by mode.
func (s *Server) handle(pattern string, h http.HandlerFunc, mode routeMode) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if st, ok := r.Context().Value(stateKey{}).(*reqState); ok {
			st.route = pattern
		}
		if mode&modeOpen == 0 && s.limiter != nil {
			if ok, wait := s.limiter.allow(clientKey(r)); !ok {
				s.metrics.observeRateLimited()
				w.Header().Set("Retry-After", retryAfterSeconds(wait))
				writeError(w, r, http.StatusTooManyRequests,
					fmt.Errorf("rate limit exceeded, retry in %s", wait.Round(time.Millisecond)))
				return
			}
		}
		if mode&modeAuth != 0 && s.token != "" && !s.authorized(r) {
			s.metrics.observeAuthFailure()
			w.Header().Set("WWW-Authenticate", `Bearer realm="effitestd"`)
			writeError(w, r, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
			return
		}
		s.applyDeadlines(w, mode)
		h(w, r)
	})
}

// applyDeadlines sets the per-route I/O deadlines (WithRouteTimeouts).
// Streaming routes skip the write deadline: their responses are open-ended
// by design, and the server-wide timeouts that would otherwise cut them are
// deliberately zero. Errors are ignored — a transport without deadline
// support (e.g. a recorder in tests) just runs unbounded.
func (s *Server) applyDeadlines(w http.ResponseWriter, mode routeMode) {
	if s.readTO == 0 && s.writeTO == 0 {
		return
	}
	rc := http.NewResponseController(w)
	now := time.Now()
	if s.readTO > 0 {
		rc.SetReadDeadline(now.Add(s.readTO))
	}
	if s.writeTO > 0 && mode&modeStream == 0 {
		rc.SetWriteDeadline(now.Add(s.writeTO))
	}
}

// retryAfterSeconds renders a wait as a Retry-After header value: whole
// seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
