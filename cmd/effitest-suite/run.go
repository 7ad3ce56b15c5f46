package main

import (
	"context"
	"fmt"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/coord"
	"effitest/fleet/httpapi"
	"effitest/manifest"
)

// execution is the resolved run configuration: the manifest's execution
// block with the CLI flags layered on top.
type execution struct {
	target  string // local | daemon | coord
	daemon  string
	nodes   []string
	workers int
	token   string
}

// resolveExecution merges the manifest's execution defaults with the flag
// overrides. A -daemon or -nodes flag implies its target; an explicit
// -target wins over both.
func resolveExecution(s *manifest.SuiteSpec, target, daemon string, nodes []string, workers int, token string) (execution, error) {
	ex := execution{
		target:  s.Execution.Target,
		daemon:  s.Execution.Daemon,
		nodes:   s.Execution.Nodes,
		workers: s.Execution.Workers,
		token:   token,
	}
	if ex.target == "" {
		ex.target = "local"
	}
	if daemon != "" {
		ex.daemon = daemon
		ex.target = "daemon"
	}
	if len(nodes) > 0 {
		ex.nodes = nodes
		ex.target = "coord"
	}
	if target != "" {
		ex.target = target
	}
	if workers != 0 {
		ex.workers = workers
	}
	switch ex.target {
	case "local":
	case "daemon":
		if ex.daemon == "" {
			return ex, fmt.Errorf("target daemon needs a base URL (-daemon or execution.daemon)")
		}
	case "coord":
		if len(ex.nodes) == 0 {
			return ex, fmt.Errorf("target coord needs node URLs (-nodes or execution.nodes)")
		}
	default:
		return ex, fmt.Errorf("unknown target %q (have local, daemon, coord)", ex.target)
	}
	if ex.target != "local" && s.Backend != "" && s.Backend != "sim" {
		// The validator enforces this for the manifest's own target; flags
		// can re-route execution, so the runner re-checks.
		return ex, fmt.Errorf("backend %q requires local execution, not target %q", s.Backend, ex.target)
	}
	return ex, nil
}

// runSuite executes every expanded campaign in order on the resolved target
// and assembles the suite report. Campaigns run sequentially — the report's
// campaign order is the expansion order, and every number in it is exact,
// so the report bytes are a pure function of (manifest, target correctness),
// not of scheduling.
func runSuite(ctx context.Context, s *manifest.SuiteSpec, camps []manifest.Campaign, ex execution, note func(done, total int, name string)) (*Report, error) {
	if note == nil {
		note = func(int, int, string) {}
	}
	var outs []CampaignReport
	run, cleanup, err := newRunner(ex)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	for i, camp := range camps {
		out, err := run(ctx, camp)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: %w", camp.Request.Name, err)
		}
		outs = append(outs, out)
		note(i+1, len(camps), camp.Request.Name)
	}
	return buildReport(s, outs), nil
}

// runner executes one expanded campaign to a report row.
type runner func(ctx context.Context, camp manifest.Campaign) (CampaignReport, error)

// newRunner builds the target's campaign runner plus its cleanup.
func newRunner(ex execution) (runner, func(), error) {
	switch ex.target {
	case "daemon":
		cl := newClient(ex.daemon, ex.token)
		return func(ctx context.Context, camp manifest.Campaign) (CampaignReport, error) {
			return runOnDaemon(ctx, cl, camp)
		}, func() {}, nil
	case "coord":
		var opts []coord.Option
		if ex.token != "" {
			opts = append(opts, coord.WithAuthToken(ex.token))
		}
		co, err := coord.New(ex.nodes, opts...)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, camp manifest.Campaign) (CampaignReport, error) {
			return runOnFleet(ctx, co, camp)
		}, func() {}, nil
	default:
		m, err := fleet.NewManager(fleet.WithWorkers(ex.workers))
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, camp manifest.Campaign) (CampaignReport, error) {
			return runLocal(ctx, m, camp)
		}, func() { m.Shutdown(context.Background()) }, nil
	}
}

func newClient(base, token string) *client.Client {
	var opts []client.Option
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	return client.New(base, opts...)
}

// runLocal executes one campaign in-process on a shared manager. The
// manifest's backend selects the measurement transport: sim (the default),
// fault (the instrumented wrapper, numerically transparent when no faults
// are scheduled), or replay — which runs the campaign twice, once recording
// through the sim backend and once replaying the trace, and reports the
// replayed run.
func runLocal(ctx context.Context, m *fleet.Manager, camp manifest.Campaign) (CampaignReport, error) {
	switch camp.Backend {
	case "", "sim":
		return runLocalSpec(ctx, m, camp, nil)
	case "fault":
		return runLocalSpec(ctx, m, camp, effitest.NewFaultBackend(nil))
	case "replay":
		rec := effitest.NewRecorder(nil)
		if _, err := runLocalSpec(ctx, m, camp, rec); err != nil {
			return CampaignReport{}, fmt.Errorf("recording: %w", err)
		}
		return runLocalSpec(ctx, m, camp, effitest.NewReplayer(rec.Trace()))
	default:
		return CampaignReport{}, fmt.Errorf("unknown backend %q", camp.Backend)
	}
}

func runLocalSpec(ctx context.Context, m *fleet.Manager, camp manifest.Campaign, backend effitest.Backend) (CampaignReport, error) {
	spec, err := camp.Request.Spec()
	if err != nil {
		return CampaignReport{}, err
	}
	if backend != nil {
		spec.Options = append(spec.Options, effitest.WithBackend(backend))
	}
	c, err := m.Submit(spec)
	if err != nil {
		return CampaignReport{}, err
	}
	st, err := c.Wait(ctx)
	if err != nil {
		return CampaignReport{}, err
	}
	if st.State != fleet.StateDone {
		return CampaignReport{}, fmt.Errorf("campaign settled %s: %v", st.State, st.Err)
	}
	ws := httpapi.StatusWire(st)
	if ws.Aggregate == nil {
		return CampaignReport{}, fmt.Errorf("settled campaign has no aggregate")
	}
	return reportRow(camp, st.Period, *ws.Aggregate), nil
}

// runOnDaemon executes one campaign against a single effitestd and reads
// back the served aggregate — the identical bytes the local path computes.
// Aggregate blocks until the campaign settles and refuses (409) one that
// settled failed or cancelled, so one Status call afterwards only fetches
// the calibrated period.
func runOnDaemon(ctx context.Context, cl *client.Client, camp manifest.Campaign) (CampaignReport, error) {
	st, err := cl.Submit(ctx, camp.Request)
	if err != nil {
		return CampaignReport{}, err
	}
	agg, err := cl.Aggregate(ctx, st.ID)
	if err != nil {
		return CampaignReport{}, err
	}
	fin, err := cl.Status(ctx, st.ID)
	if err != nil {
		return CampaignReport{}, err
	}
	return reportRow(camp, fin.Period, agg), nil
}

// runOnFleet shards one campaign across the coordinator's node pool; the
// merged summary is bit-identical to a single-node run by the coordinator's
// own guarantees.
func runOnFleet(ctx context.Context, co *coord.Coordinator, camp manifest.Campaign) (CampaignReport, error) {
	req := camp.Request
	run, err := co.Start(ctx, coord.Spec{
		Name:     req.Name,
		Circuit:  req.Circuit,
		Config:   req.Config,
		Chips:    req.Chips,
		Workload: req.Workload,
		BinEdges: req.BinEdges,
		Drift:    req.Drift,
	})
	if err != nil {
		return CampaignReport{}, err
	}
	sum, err := run.Wait(ctx)
	if err != nil {
		return CampaignReport{}, err
	}
	return reportRow(camp, sum.Period, sum.Aggregate), nil
}
