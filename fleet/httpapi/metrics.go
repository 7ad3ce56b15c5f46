package httpapi

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"effitest"
	"effitest/fleet"
)

// Metrics is the daemon's metrics sink: a dependency-free Prometheus text
// (exposition format 0.0.4) registry fed from three directions —
//
//   - HTTP middleware: request counts by route and status code, request
//     latency, auth failures, rate-limit and admission rejections;
//   - flow events: an Observer (see Observer) that turns the engine's typed
//     events (ChipDoneEvent, PredictEvent, ConfigureEvent, BatchEndEvent)
//     into counters and histograms, attached service-wide via
//     fleet.WithManagerObserver;
//   - scrape-time gauges: Registry.Stats() and Manager.Stats() snapshots
//     rendered alongside the counters on every GET /metrics.
//
// All methods are safe for concurrent use; observation takes one short
// mutex hold, cheap enough for the per-chip hot path.
type Metrics struct {
	mu           sync.Mutex
	httpRequests map[httpKey]int64
	httpSeconds  histogram

	authFailures  int64
	rateLimited   int64
	queueRejected int64

	chips           map[string]int64 // by result: passed | failed | error
	batches         int64
	batchIterations int64
	alignSeconds    histogram
	predictSeconds  histogram
	configSeconds   histogram
}

// httpKey labels one requests_total series. Route is the mux pattern (which
// already names the method), so cardinality is bounded by routes × codes.
type httpKey struct {
	route string
	code  int
}

// durationBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond prediction kernels up to multi-second request waits.
var durationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket cumulative histogram over durationBuckets.
type histogram struct {
	counts []int64 // one per durationBuckets entry; nil until first observe
	count  int64
	sum    float64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]int64, len(durationBuckets))
	}
	for i, b := range durationBuckets {
		if v <= b {
			h.counts[i]++
		}
	}
	h.count++
	h.sum += v
}

func (h *histogram) bucket(i int) int64 {
	if h.counts == nil {
		return 0
	}
	return h.counts[i]
}

// NewMetrics builds an empty metrics registry. Wire its Observer into the
// manager (fleet.WithManagerObserver) and hand the Metrics to New via
// WithMetrics so the HTTP middleware and /metrics endpoint share it.
func NewMetrics() *Metrics {
	return &Metrics{
		httpRequests: map[httpKey]int64{},
		chips:        map[string]int64{},
	}
}

// Observer returns the event sink that feeds chip-level metrics: chip
// results by outcome, test batches and tester iterations, and the paper's
// Tt/Tp/Ts latency components (alignment, prediction and configuration
// durations).
func (mx *Metrics) Observer() effitest.Observer {
	return effitest.ObserverFunc(func(e effitest.Event) {
		switch ev := e.(type) {
		case effitest.ChipDoneEvent:
			result := "passed"
			switch {
			case ev.Err != nil:
				result = "error"
			case !ev.Passed:
				result = "failed"
			}
			mx.mu.Lock()
			mx.chips[result]++
			mx.mu.Unlock()
		case effitest.PredictEvent:
			mx.mu.Lock()
			mx.predictSeconds.observe(ev.Duration.Seconds())
			mx.mu.Unlock()
		case effitest.ConfigureEvent:
			mx.mu.Lock()
			mx.configSeconds.observe(ev.Duration.Seconds())
			mx.mu.Unlock()
		case effitest.BatchEndEvent:
			mx.mu.Lock()
			mx.batches++
			mx.batchIterations += int64(ev.Iterations)
			mx.alignSeconds.observe(ev.AlignTime.Seconds())
			mx.mu.Unlock()
		}
	})
}

// observeHTTP records one served request.
func (mx *Metrics) observeHTTP(route string, code int, d time.Duration) {
	mx.mu.Lock()
	mx.httpRequests[httpKey{route: route, code: code}]++
	mx.httpSeconds.observe(d.Seconds())
	mx.mu.Unlock()
}

func (mx *Metrics) observeAuthFailure() {
	mx.mu.Lock()
	mx.authFailures++
	mx.mu.Unlock()
}

func (mx *Metrics) observeRateLimited() {
	mx.mu.Lock()
	mx.rateLimited++
	mx.mu.Unlock()
}

func (mx *Metrics) observeQueueRejected() {
	mx.mu.Lock()
	mx.queueRejected++
	mx.mu.Unlock()
}

// render writes the full exposition: event/HTTP counters plus scrape-time
// gauges from the manager and registry snapshots. Series within a family
// are sorted, so consecutive scrapes of an idle daemon are byte-identical.
func (mx *Metrics) render(w io.Writer, ms fleet.ManagerStats, rs fleet.RegistryStats) {
	mx.mu.Lock()
	defer mx.mu.Unlock()

	head(w, "effitestd_http_requests_total", "counter", "HTTP requests served, by route pattern and status code.")
	keys := make([]httpKey, 0, len(mx.httpRequests))
	for k := range mx.httpRequests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "effitestd_http_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, mx.httpRequests[k])
	}
	writeHistogram(w, "effitestd_http_request_duration_seconds", "HTTP request latency.", &mx.httpSeconds)

	counter(w, "effitestd_auth_failures_total", "Requests refused for a missing or wrong bearer token.", mx.authFailures)
	counter(w, "effitestd_rate_limited_total", "Requests refused by the per-client token bucket.", mx.rateLimited)
	counter(w, "effitestd_admission_rejected_total", "Campaign submissions refused by the bounded queue.", mx.queueRejected)

	head(w, "effitestd_chips_total", "counter", "Chips executed on the campaign pool, by result.")
	results := make([]string, 0, len(mx.chips))
	for r := range mx.chips {
		results = append(results, r)
	}
	sort.Strings(results)
	for _, r := range results {
		fmt.Fprintf(w, "effitestd_chips_total{result=%q} %d\n", r, mx.chips[r])
	}
	counter(w, "effitestd_test_batches_total", "Test batches measured across all chips.", mx.batches)
	counter(w, "effitestd_tester_iterations_total", "Tester iterations (frequency steps) across all batches.", mx.batchIterations)
	writeHistogram(w, "effitestd_align_duration_seconds", "Per-batch alignment solve time (the paper's Tt component).", &mx.alignSeconds)
	writeHistogram(w, "effitestd_predict_duration_seconds", "Per-chip conditional-prediction time (the paper's Tp component).", &mx.predictSeconds)
	writeHistogram(w, "effitestd_configure_duration_seconds", "Per-chip buffer-configuration time (the paper's Ts component).", &mx.configSeconds)

	// Scrape-time gauges from the manager and registry snapshots.
	gauge(w, "effitestd_workers", "Resolved size of the shared chip-execution pool.", int64(ms.Workers))
	head(w, "effitestd_campaigns", "gauge", "Campaigns in the manager table, by lifecycle state.")
	for _, s := range []struct {
		state string
		n     int
	}{
		{"cancelled", ms.CampaignsCancelled},
		{"done", ms.CampaignsDone},
		{"failed", ms.CampaignsFailed},
		{"queued", ms.CampaignsQueued},
		{"running", ms.CampaignsRunning},
	} {
		fmt.Fprintf(w, "effitestd_campaigns{state=%q} %d\n", s.state, s.n)
	}
	head(w, "effitestd_campaigns_by_workload", "gauge", "Campaigns in the manager table, by workload type.")
	workloads := make([]string, 0, len(ms.CampaignsByWorkload))
	for wl := range ms.CampaignsByWorkload {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		fmt.Fprintf(w, "effitestd_campaigns_by_workload{workload=%q} %d\n", wl, ms.CampaignsByWorkload[wl])
	}
	gauge(w, "effitestd_bin_histogram_bins", "Period-bin cells held across clock-binning campaigns.", int64(ms.BinHistogramBins))
	gauge(w, "effitestd_campaign_queue_limit", "Admission bound on non-terminal campaigns (0 = unbounded).", int64(ms.QueueLimit))
	counter(w, "effitestd_campaigns_rejected_total", "Campaign submissions refused by admission control since start.", ms.CampaignsRejected)
	gauge(w, "effitestd_chips_pending", "Resolved chips not yet dispatched to the pool.", int64(ms.ChipsPending))
	gauge(w, "effitestd_chips_in_flight", "Dispatched chips without a result yet.", int64(ms.ChipsInFlight))
	counter(w, "effitestd_chips_executed_total", "Chips run on the pool since start.", ms.ChipsExecuted)
	// Durability counters. The effitest_ (not effitestd_) prefix on the two
	// recovery counters is deliberate: they describe the campaign's logical
	// history, which survives daemon restarts, not this process.
	counter(w, "effitest_campaigns_recovered_total", "Campaigns rebuilt from the journal at boot.", ms.CampaignsRecovered)
	counter(w, "effitest_chips_replayed_total", "Chip results replayed from the journal instead of re-executed.", ms.ChipsReplayed)
	gauge(w, "effitestd_journal_segments", "Campaign journal segments on disk (open + settled).", int64(ms.JournalSegments))
	gauge(w, "effitestd_journal_open_segments", "Journal segments still accepting appends (unsettled campaigns).", int64(ms.JournalOpenSegments))
	gauge(w, "effitestd_journal_bytes", "Bytes held by campaign journal segments.", ms.JournalBytes)
	counter(w, "effitestd_journal_append_errors_total", "Journal appends that failed (I/O error, disk full).", ms.JournalAppendErrors)
	gauge(w, "effitestd_engines_live", "Live engines in the registry (including in-flight constructions).", int64(rs.Live))
	counter(w, "effitestd_registry_hits_total", "Registry requests served an existing engine.", int64(rs.Hits))
	counter(w, "effitestd_registry_misses_total", "Registry requests that constructed an engine.", int64(rs.Misses))
	counter(w, "effitestd_registry_prepares_total", "Engine constructions that ran the offline Prepare.", int64(rs.Prepares))
	counter(w, "effitestd_registry_evictions_total", "Engines dropped by the registry's LRU bound.", int64(rs.Evictions))
	head(w, "effitestd_registry_build_seconds_total", "counter", "Wall time spent constructing engines on registry misses (Prepare and period calibration).")
	fmt.Fprintf(w, "effitestd_registry_build_seconds_total %s\n", trimFloat(rs.BuildTime.Seconds()))
}

func head(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func counter(w io.Writer, name, help string, v int64) {
	head(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func gauge(w io.Writer, name, help string, v int64) {
	head(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeHistogram(w io.Writer, name, help string, h *histogram) {
	head(w, name, "histogram", help)
	for i, b := range durationBuckets {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), h.bucket(i))
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %s\n", name, trimFloat(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// trimFloat formats a float the way Prometheus buckets conventionally read
// (no exponent for these magnitudes, no trailing zeros).
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
