package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/coord"
	"effitest/fleet/httpapi"
	"effitest/fleet/journal"
)

// kind is the stack a workload's lots run through.
type kind int

const (
	kindEngine kind = iota // in-process Engine.RunChipsAll
	kindDaemon             // fleet.Manager + journal + httpapi over loopback, fleet/client
	kindCoord              // fleet/coord over two loopback daemons
)

// workload is one fixed, seeded amount of closed-loop work. Every run
// completes at least lots lots; the exact counts (tester iterations, yield)
// and the output digest cover exactly those, so they repeat bit for bit for
// one seed.
type workload struct {
	name     string
	kind     kind
	lots     int
	lotChips int
	callers  int
	// cold lots each name a fresh circuit, so nothing warms the registry.
	cold bool
	// plan lots run from a plan artifact pushed to the daemons at set-up.
	plan    bool
	request func(seed int64, lot int) httpapi.CampaignRequest
}

// checkEvery picks the lots whose service output is re-run on an
// in-process Engine and compared chip by chip.
const checkEvery = 25

// par bounds callers and workers: the benchmark never runs more of either
// than the machine has CPUs (and never more than the 2 it was sized for).
func par() int { return min(2, runtime.GOMAXPROCS(0)) }

func tiny64Circuit() httpapi.CircuitSpec {
	return httpapi.CircuitSpec{
		Custom:  &httpapi.CustomProfile{Name: "tiny64", FFs: 64, Gates: 640, Buffers: 6, Paths: 72},
		GenSeed: 1,
	}
}

func tiny64Config() httpapi.ConfigSpec {
	return httpapi.ConfigSpec{Align: "heuristic", Eps: 0.002, Seed: 1, Quantile: 0.8413, CalibChips: 300}
}

// chipRange addresses lot i's chips: lot i owns manufacturing indices
// [i·n, (i+1)·n) of the seed's population, so chip indices identify lots.
func chipRange(seed int64, lot, n int) httpapi.ChipSpec {
	return httpapi.ChipSpec{Seed: seed, First: lot * n, Count: n}
}

// coldGenSeed derives lot i's circuit generator seed from the run seed
// (splitmix64), so every cold lot is a circuit no earlier lot named.
func coldGenSeed(seed int64, lot int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lot)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

var workloads = []*workload{
	// Align-heavy compute with no service stack: core alignment (Tt) is over
	// 80% of a usb_funct chip; fleet, journal, http and coord do nothing.
	{
		name:     "engine-align",
		kind:     kindEngine,
		lots:     200,
		lotChips: 8,
		callers:  1,
		request: func(seed int64, lot int) httpapi.CampaignRequest {
			return httpapi.CampaignRequest{
				Circuit: httpapi.CircuitSpec{Profile: "usb_funct", GenSeed: 1},
				Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 400},
				Chips:   chipRange(seed, lot, 8),
			}
		},
	},
	// Every campaign hits the registry and a tiny64 chip is under 2 ms, so
	// Manager scheduling, journal appends and HTTP/NDJSON weigh most.
	{
		name:     "daemon-warm",
		kind:     kindDaemon,
		lots:     400,
		lotChips: 32,
		callers:  2,
		request: func(seed int64, lot int) httpapi.CampaignRequest {
			return httpapi.CampaignRequest{Circuit: tiny64Circuit(), Config: tiny64Config(), Chips: chipRange(seed, lot, 32)}
		},
	},
	// The same stack used the other way: every campaign names a fresh s9234
	// circuit and misses the registry, so Prepare and period calibration
	// dominate, and work moved into Prepare to speed chips shows its cost.
	{
		name:     "daemon-cold",
		kind:     kindDaemon,
		lots:     500,
		lotChips: 8,
		callers:  2,
		cold:     true,
		request: func(seed int64, lot int) httpapi.CampaignRequest {
			return httpapi.CampaignRequest{
				Circuit: httpapi.CircuitSpec{Profile: "s9234", GenSeed: coldGenSeed(seed, lot)},
				Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 200},
				Chips:   chipRange(seed, lot, 8),
			}
		},
	},
	// Sharding, merge/reorder and per-node NDJSON streaming across two
	// loopback daemons with the plan pre-pushed.
	{
		name:     "coord-sharded",
		kind:     kindCoord,
		lots:     200,
		lotChips: 64,
		callers:  1,
		plan:     true,
		request: func(seed int64, lot int) httpapi.CampaignRequest {
			return httpapi.CampaignRequest{Circuit: tiny64Circuit(), Config: tiny64Config(), Chips: chipRange(seed, lot, 64)}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// firstChip is the manufacturing index of a daemon's first campaign's chip:
// far past any lot, so it never collides with a measured lot's.
const firstChip = 1 << 28

// lotRun is what the main loop hands a server for one lot.
type lotRun struct {
	i    int
	req  httpapi.CampaignRequest
	tr   *recorder // nil when untraced
	span int64     // reserved ID of the span the lot's chips nest under
}

// server is a workload's serving state.
type server interface {
	// lot runs one closed-loop request and returns the chip results in
	// input order plus the lot's latency as the workload defines it.
	lot(ctx context.Context, r lotRun) ([]chipRec, time.Duration, error)
	close()
}

// hooks are the public instrumentation points a traced build attaches.
type hooks struct {
	observer effitest.Observer
	tr       *recorder
}

// buildServer constructs the workload's serving state — what setup_s times.
func buildServer(ctx context.Context, w *workload, seed int64, dir string, hk hooks) (server, error) {
	switch w.kind {
	case kindEngine:
		start := time.Now()
		eng, err := newEngine(w.request(seed, 0), hk.observer, nil)
		if err != nil {
			return nil, err
		}
		hk.tr.add("effitest.New", 0, 0, -1, start, time.Now())
		return &engineServer{eng: eng}, nil
	case kindDaemon:
		d, err := startDaemon(dir, par(), hk.observer)
		if err != nil {
			return nil, err
		}
		s := &daemonServer{d: d, cl: newClient(d.url, nil)}
		if _, _, _, err := httpCampaign(ctx, s.cl, firstRun(w, seed, hk.tr)); err != nil {
			s.close()
			return nil, fmt.Errorf("first campaign: %w", err)
		}
		return s, nil
	case kindCoord:
		art, err := planArtifact(w.request(seed, 0))
		if err != nil {
			return nil, err
		}
		s := &coordServer{art: art}
		for range 2 {
			d, err := startDaemon(dir, max(1, par()/2), hk.observer)
			if err != nil {
				s.close()
				return nil, err
			}
			s.nodes = append(s.nodes, d)
			if _, err := newClient(d.url, nil).UploadPlan(ctx, art); err != nil {
				s.close()
				return nil, fmt.Errorf("pre-pushing plan: %w", err)
			}
		}
		s.co, err = coord.New([]string{s.nodes[0].url, s.nodes[1].url}, coord.WithHTTPClient(newHTTPClient(nil)))
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload kind %d", w.kind)
}

// newEngine builds an in-process engine for a request's circuit and config
// with par() workers and the optional observer and backend.
func newEngine(req httpapi.CampaignRequest, obs effitest.Observer, be effitest.Backend) (*effitest.Engine, error) {
	c, err := req.Circuit.Build()
	if err != nil {
		return nil, err
	}
	opts, err := req.Config.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, effitest.WithWorkers(par()))
	if obs != nil {
		opts = append(opts, effitest.WithObserver(obs))
	}
	if be != nil {
		opts = append(opts, effitest.WithBackend(be))
	}
	return effitest.New(c, opts...)
}

// planArtifact prepares the request's plan in process and serializes it.
func planArtifact(req httpapi.CampaignRequest) ([]byte, error) {
	eng, err := newEngine(req, nil, nil)
	if err != nil {
		return nil, err
	}
	return effitest.EncodePlan(eng.Plan())
}

type engineServer struct{ eng *effitest.Engine }

func (s *engineServer) lot(ctx context.Context, r lotRun) ([]chipRec, time.Duration, error) {
	chips, err := s.eng.SampleChipRange(ctx, r.req.Chips.Seed, r.req.Chips.First, r.req.Chips.Count)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	outs, err := s.eng.RunChipsAll(ctx, chips)
	lat := time.Since(start)
	r.tr.add("effitest.RunChipsAll", r.span, 0, r.i, start, start.Add(lat))
	if err != nil {
		return nil, lat, err
	}
	recs := make([]chipRec, len(outs))
	for i, out := range outs {
		recs[i] = recFromOutcome(out, nil)
	}
	return recs, lat, nil
}

func (s *engineServer) close() {}

// daemon is one in-process effitestd: a journaled Manager behind the HTTP
// API on a loopback listener.
type daemon struct {
	m      *fleet.Manager
	j      *journal.Journal
	srv    *http.Server
	url    string
	served chan error
}

// startDaemon boots a daemon whose journal lives in a fresh directory under
// dir. The journal skips fsync: the benchmark measures encode, CRC and the
// write syscall, not the disk (journal.append_disk_us reports that).
func startDaemon(dir string, workers int, obs effitest.Observer) (*daemon, error) {
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(jdir, journal.WithoutSync())
	if err != nil {
		return nil, err
	}
	opts := []fleet.ManagerOption{fleet.WithWorkers(workers), fleet.WithJournal(j)}
	if obs != nil {
		opts = append(opts, fleet.WithManagerObserver(obs))
	}
	m, err := fleet.NewManager(opts...)
	if err != nil {
		j.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Shutdown(context.Background())
		j.Close()
		return nil, err
	}
	d := &daemon{
		m:      m,
		j:      j,
		srv:    &http.Server{Handler: httpapi.New(m), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops serving, drains the manager and closes the journal, waiting
// for the serve goroutine to exit.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.m.Shutdown(ctx)
	d.j.Close()
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	inner http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newHTTPClient returns a client whose transport keeps at most par()
// connections per daemon, optionally counting bytes through ct.
func newHTTPClient(ct *countingTransport) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: par(), MaxIdleConnsPerHost: par()}
	if ct == nil {
		return &http.Client{Transport: tr}
	}
	ct.inner = tr
	return &http.Client{Transport: ct}
}

func newClient(url string, ct *countingTransport) *client.Client {
	return client.New(url, client.WithHTTPClient(newHTTPClient(ct)))
}

// firstRun is a daemon's first campaign, which set-up includes: one chip of
// lot 0's circuit, so the registry is warm for the lots — or, for a cold
// workload, of lot -1's, a circuit no lot names, so every lot still misses.
func firstRun(w *workload, seed int64, tr *recorder) lotRun {
	lot := 0
	if w.cold {
		lot = -1
	}
	req := w.request(seed, lot)
	req.Chips = httpapi.ChipSpec{Seed: seed, First: firstChip, Count: 1}
	return lotRun{i: -1, req: req, tr: tr}
}

// httpCampaign submits one campaign and streams its results in input
// order. It returns the submit round trip and the time from submit to the
// last result, the daemon workloads' lot latency. The chips' spans nest
// under the stream span (r.span), which is what the client waits on while
// they run.
func httpCampaign(ctx context.Context, cl *client.Client, r lotRun) (recs []chipRec, submit, total time.Duration, err error) {
	start := time.Now()
	st, err := cl.Submit(ctx, r.req)
	submit = time.Since(start)
	if err == nil {
		recs, err = streamAll(ctx, cl, st.ID, r.req.Chips.Count)
	}
	total = time.Since(start)
	lot := r.tr.add("lot", 0, 0, r.i, start, start.Add(total))
	r.tr.add("client.Submit", 0, lot, r.i, start, start.Add(submit))
	r.tr.add("client.StreamResults", r.span, lot, r.i, start.Add(submit), start.Add(total))
	return recs, submit, total, err
}

type daemonServer struct {
	d  *daemon
	cl *client.Client
}

// streamAll reads a campaign's NDJSON result stream into input order.
func streamAll(ctx context.Context, cl *client.Client, id string, n int) ([]chipRec, error) {
	recs := make([]chipRec, n)
	got := 0
	for res, err := range cl.StreamResults(ctx, id) {
		if err != nil {
			return nil, err
		}
		if res.Index != got {
			return nil, fmt.Errorf("campaign %s: result %d arrived at position %d", id, res.Index, got)
		}
		if got == n {
			return nil, fmt.Errorf("campaign %s: more than %d results", id, n)
		}
		recs[got] = recFromWire(res)
		got++
	}
	if got != n {
		return nil, fmt.Errorf("campaign %s: streamed %d of %d results", id, got, n)
	}
	return recs, nil
}

func (s *daemonServer) lot(ctx context.Context, r lotRun) ([]chipRec, time.Duration, error) {
	recs, _, total, err := httpCampaign(ctx, s.cl, r)
	return recs, total, err
}

func (s *daemonServer) close() { s.d.close() }

type coordServer struct {
	nodes []*daemon
	co    *coord.Coordinator
	art   []byte
}

// coordRun runs one coordinated campaign from Start to Wait and returns the
// merged results, the summary and the time from Start to Wait, the
// coord-sharded workload's lot latency. The chips' spans nest under the
// merged-results span (r.span).
func coordRun(ctx context.Context, co *coord.Coordinator, spec coord.Spec, r lotRun) (recs []chipRec, sum coord.Summary, total time.Duration, err error) {
	start := time.Now()
	var started, merged time.Time
	defer func() {
		end := time.Now()
		total = end.Sub(start)
		lot := r.tr.add("lot", 0, 0, r.i, start, end)
		if !started.IsZero() {
			r.tr.add("coord.Start", 0, lot, r.i, start, started)
		}
		if !merged.IsZero() {
			r.tr.add("coord.Results", r.span, lot, r.i, started, merged)
			r.tr.add("coord.Wait", 0, lot, r.i, merged, end)
		}
	}()
	run, err := co.Start(ctx, spec)
	if err != nil {
		return nil, sum, 0, err
	}
	started = time.Now()
	recs = make([]chipRec, 0, spec.Chips.Count)
	for res, err := range run.Results(ctx) {
		if err != nil {
			return nil, sum, 0, err
		}
		recs = append(recs, recFromWire(res))
	}
	merged = time.Now()
	if sum, err = run.Wait(ctx); err != nil {
		return nil, sum, 0, err
	}
	if sum.Chips != spec.Chips.Count || len(recs) != spec.Chips.Count {
		return nil, sum, 0, fmt.Errorf("coordinated run merged %d chips (%d streamed), want %d", sum.Chips, len(recs), spec.Chips.Count)
	}
	if sum.Retries > 0 {
		// On loopback daemons with no faults injected, a retry is a failure.
		return recs, sum, 0, fmt.Errorf("coordinated run needed %d retries", sum.Retries)
	}
	return recs, sum, 0, nil
}

func coordSpec(req httpapi.CampaignRequest, art []byte) coord.Spec {
	return coord.Spec{Name: req.Name, Circuit: req.Circuit, Config: req.Config, Chips: req.Chips, Plan: art}
}

func (s *coordServer) lot(ctx context.Context, r lotRun) ([]chipRec, time.Duration, error) {
	recs, _, total, err := coordRun(ctx, s.co, coordSpec(r.req, s.art), r)
	return recs, total, err
}

func (s *coordServer) close() {
	for _, d := range s.nodes {
		d.close()
	}
}
