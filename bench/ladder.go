package main

// The per-layer metrics come from climbing a ladder: each ladder lot runs
// through every rung back to back, one caller at a time, so adjacent rungs
// differ by exactly one layer and see the same machine load:
//
//	engine  in-process Engine.RunChipsAll, timing Backend + Observer
//	fleet   fleet.Manager Submit→Wait (journaled)
//	http    the same through httpapi + fleet/client
//	coord1  fleet/coord over one daemon
//	coord2  fleet/coord over two daemons
//
// A layer's overhead is the median over lots of the paired difference
// between its rung and the one below, which cancels the slow swings in
// machine speed a shared box shows. Direct timings cover the layers below
// the engine (Prepare's stages, period calibration, the conditional-
// prediction kernels, journal appends). Every rung's chip results are
// checked against the engine rung's.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/coord"
	"effitest/fleet/httpapi"
	"effitest/fleet/journal"
	"effitest/internal/core"
	"effitest/internal/la"
	"effitest/internal/stats"
)

// ladderRun is how many consecutive lots the ladder climbs from each
// reference lot (every checkEvery-th): the reference lot, which the output
// check compares against, plus the next ones for more paired samples. Lots
// stay distinct, so a cold workload's ladder misses every registry.
const ladderRun = 3

// ladderLots lists the lots the ladder climbs.
func ladderLots(fixed int) []int {
	var lots []int
	for i := 0; i < fixed; i += checkEvery {
		for k := i; k < min(i+ladderRun, fixed); k++ {
			lots = append(lots, k)
		}
	}
	return lots
}

// timedBackend wraps the default simulated tester and times every
// Session.Step.
type timedBackend struct {
	inner effitest.Backend
	steps atomic.Int64
	ns    atomic.Int64
}

func (b *timedBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	s, err := b.inner.Open(ch, resolution)
	if err != nil {
		return nil, err
	}
	return &timedSession{Session: s, b: b}, nil
}

type timedSession struct {
	effitest.Session
	b *timedBackend
}

func (s *timedSession) Step(T float64, x []float64, batch []int) (float64, []bool, error) {
	start := time.Now()
	applied, pass, err := s.Session.Step(T, x, batch)
	s.b.ns.Add(int64(time.Since(start)))
	s.b.steps.Add(1)
	return applied, pass, err
}

// stageObserver sums what the flow events reveal about the chips' stages.
type stageObserver struct {
	mu         sync.Mutex
	batchStart map[int]time.Time
	measure    time.Duration // BatchStart→BatchEnd, summed over batches
	solves     int
	solveTime  time.Duration
	predicted  int
}

func (o *stageObserver) Observe(e effitest.Event) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e := e.(type) {
	case effitest.BatchStartEvent:
		o.batchStart[e.Chip] = now
	case effitest.BatchEndEvent:
		o.measure += now.Sub(o.batchStart[e.Chip])
	case effitest.AlignSolveEvent:
		o.solves++
		o.solveTime += e.Duration
	case effitest.PredictEvent:
		o.predicted += e.Predicted
	}
}

// engineRung runs lots on in-process engines, optionally instrumented, and
// keeps their chip results as the reference every other path must
// reproduce.
type engineRung struct {
	obs effitest.Observer
	be  effitest.Backend

	eng      *effitest.Engine
	key      string
	refs     map[int][]chipRec
	chips    int
	wall     time.Duration // summed RunChipsAll wall time
	align    time.Duration
	predict  time.Duration
	config   time.Duration
	first    *effitest.Engine        // the first lot's engine
	outcomes []*effitest.ChipOutcome // the first lot's outcomes
}

// run runs lot i, reusing the previous lot's engine when the circuit and
// config match, and returns the RunChipsAll wall time.
func (er *engineRung) run(ctx context.Context, i int, req httpapi.CampaignRequest) (time.Duration, error) {
	if k := buildKey(req); er.eng == nil || k != er.key {
		eng, err := newEngine(req, er.obs, er.be)
		if err != nil {
			return 0, fmt.Errorf("reference engine for lot %d: %w", i, err)
		}
		er.eng, er.key = eng, k
	}
	chips, err := er.eng.SampleChipRange(ctx, req.Chips.Seed, req.Chips.First, req.Chips.Count)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	outs, err := er.eng.RunChipsAll(ctx, chips)
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reference lot %d: %w", i, err)
	}
	er.wall += d
	recs := make([]chipRec, len(outs))
	for k, out := range outs {
		recs[k] = recFromOutcome(out, nil)
		er.align += out.AlignDuration
		er.predict += out.PredictDuration
		er.config += out.ConfigDuration
	}
	er.refs[i] = recs
	er.chips += len(outs)
	if er.first == nil {
		er.first, er.outcomes = er.eng, outs
	}
	return d, nil
}

// referenceRuns runs the lots on uninstrumented in-process engines: the
// output check of an untraced run.
func referenceRuns(ctx context.Context, w *workload, seed int64, lots []int) (map[int][]chipRec, error) {
	er := &engineRung{refs: map[int][]chipRec{}}
	for _, i := range lots {
		if _, err := er.run(ctx, i, w.request(seed, i)); err != nil {
			return nil, err
		}
	}
	return er.refs, nil
}

// buildKey identifies the engine a request needs.
func buildKey(req httpapi.CampaignRequest) string {
	b, _ := json.Marshal(struct {
		C httpapi.CircuitSpec
		F httpapi.ConfigSpec
	}{req.Circuit, req.Config})
	return string(b)
}

// rungs is the serving state of every rung above the engine, all live at
// once. Each rung has daemons of its own, so a cold lot misses every rung's
// registry.
type rungs struct {
	fleetD, httpD *daemon
	nodes         []*daemon // coord1's node, then coord2's two
	cl            *client.Client
	ct            *countingTransport
	art           []byte         // plan workloads' pre-pushed artifact, else nil
	plan          *effitest.Plan // art, decoded
	planID        string         // art's ID on the HTTP rung's daemon
	c1, c2        *coord.Coordinator
}

func (r *rungs) close() {
	for _, d := range append([]*daemon{r.fleetD, r.httpD}, r.nodes...) {
		if d != nil {
			d.close()
		}
	}
}

// startRungs boots the rungs' daemons and runs each rung's first campaign,
// as set-up does for a measured daemon, so ladder lots hit or miss the
// registries as measured lots do.
func startRungs(ctx context.Context, w *workload, seed int64, dir string, art []byte) (r *rungs, err error) {
	r = &rungs{ct: &countingTransport{}, art: art}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.fleetD, err = startDaemon(dir, par(), nil); err != nil {
		return r, err
	}
	if r.httpD, err = startDaemon(dir, par(), nil); err != nil {
		return r, err
	}
	// coord1's node has the HTTP rung's workers; coord2's nodes split them
	// as the coord-sharded workload does.
	for _, workers := range []int{par(), max(1, par()/2), max(1, par()/2)} {
		d, err := startDaemon(dir, workers, nil)
		if err != nil {
			return r, err
		}
		r.nodes = append(r.nodes, d)
	}
	r.cl = newClient(r.httpD.url, r.ct)
	if w.plan {
		if r.plan, err = effitest.DecodePlan(art); err != nil {
			return r, err
		}
		if r.planID, err = r.cl.UploadPlan(ctx, art); err != nil {
			return r, err
		}
	}
	if r.c1, err = coord.New([]string{r.nodes[0].url}, coord.WithHTTPClient(newHTTPClient(nil))); err != nil {
		return r, err
	}
	if r.c2, err = coord.New([]string{r.nodes[1].url, r.nodes[2].url}, coord.WithHTTPClient(newHTTPClient(nil))); err != nil {
		return r, err
	}
	first := firstRun(w, seed, nil)
	if _, _, _, err := r.fleet(ctx, first.req); err != nil {
		return r, fmt.Errorf("fleet rung's first campaign: %w", err)
	}
	if _, _, _, err := r.http(ctx, first); err != nil {
		return r, fmt.Errorf("http rung's first campaign: %w", err)
	}
	for _, co := range []*coord.Coordinator{r.c1, r.c2} {
		if _, _, _, err := r.coord(ctx, co, first); err != nil {
			return r, fmt.Errorf("coord rung's first campaign: %w", err)
		}
	}
	return r, nil
}

// fleet runs a request on the fleet rung's Manager in process, from Submit
// to Wait, and returns the time to the first result and to the end. The
// circuit is built before the clock starts: the daemon builds it in its HTTP
// handler, so that cost belongs to http.overhead_ms.
func (r *rungs) fleet(ctx context.Context, req httpapi.CampaignRequest) (recs []chipRec, first, total time.Duration, err error) {
	c, err := req.Circuit.Build()
	if err != nil {
		return nil, 0, 0, err
	}
	opts, err := req.Config.Options()
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	camp, err := r.fleetD.m.Submit(fleet.CampaignSpec{Circuit: c, Options: opts, Plan: r.plan,
		ChipSeed: req.Chips.Seed, ChipFirst: req.Chips.First, ChipCount: req.Chips.Count})
	if err != nil {
		return nil, 0, 0, err
	}
	for res := range camp.Results(ctx) {
		if first == 0 {
			first = time.Since(start)
		}
		recs = append(recs, recFromOutcome(res.Outcome, res.Err))
	}
	st, err := camp.Wait(ctx)
	total = time.Since(start)
	if err == nil && st.State != fleet.StateDone {
		err = fmt.Errorf("campaign %s ended %s: %v", st.ID, st.State, st.Err)
	}
	return recs, first, total, err
}

// http runs a request on the HTTP rung's daemon; r.ct counts the bytes.
func (r *rungs) http(ctx context.Context, lr lotRun) (recs []chipRec, submit, total time.Duration, err error) {
	lr.req.PlanID = r.planID
	return httpCampaign(ctx, r.cl, lr)
}

func (r *rungs) coord(ctx context.Context, co *coord.Coordinator, lr lotRun) ([]chipRec, coord.Summary, time.Duration, error) {
	return coordRun(ctx, co, coordSpec(lr.req, r.art), lr)
}

// ladder is what the climb collects, per rung.
type ladder struct {
	engineMs           []float64
	fleetMs, queueMs   []float64
	fleetOverMs        []float64 // fleet campaign − engine lot, per lot
	submitMs, streamMs []float64
	httpOverMs         []float64 // http stream − fleet campaign, per lot
	c2Ms               []float64
	coordOverMs        []float64 // coord1 run − http stream, per lot
	httpBytes          int64
	shards, retries    int
}

// climbLot runs lot i up the ladder, checking each rung's output against
// the engine rung's.
func (l *ladder) climbLot(ctx context.Context, er *engineRung, r *rungs, i int, req httpapi.CampaignRequest) error {
	engineT, err := er.run(ctx, i, req)
	if err != nil {
		return err
	}
	check := func(rung string, recs []chipRec, err error) error {
		if err == nil {
			err = sameRecs(recs, er.refs[i])
		}
		if err != nil {
			return fmt.Errorf("%s rung, lot %d: %w", rung, i, err)
		}
		return nil
	}
	recs, first, fleetT, err := r.fleet(ctx, req)
	if err := check("fleet", recs, err); err != nil {
		return err
	}
	before := r.ct.bytes.Load()
	recs, submit, stream, err := r.http(ctx, lotRun{i: i, req: req})
	if err := check("http", recs, err); err != nil {
		return err
	}
	l.httpBytes += r.ct.bytes.Load() - before
	recs, _, c1, err := r.coord(ctx, r.c1, lotRun{i: i, req: req})
	if err := check("coord1", recs, err); err != nil {
		return err
	}
	recs, sum, c2, err := r.coord(ctx, r.c2, lotRun{i: i, req: req})
	if err := check("coord2", recs, err); err != nil {
		return err
	}
	l.engineMs = append(l.engineMs, ms(engineT))
	l.fleetMs = append(l.fleetMs, ms(fleetT))
	l.fleetOverMs = append(l.fleetOverMs, ms(fleetT-engineT))
	l.queueMs = append(l.queueMs, ms(first))
	l.submitMs = append(l.submitMs, ms(submit))
	l.streamMs = append(l.streamMs, ms(stream))
	l.httpOverMs = append(l.httpOverMs, ms(stream-fleetT))
	l.c2Ms = append(l.c2Ms, ms(c2))
	l.coordOverMs = append(l.coordOverMs, ms(c1-stream))
	l.shards += len(sum.Assignments)
	l.retries += sum.Retries
	return nil
}

// climb measures every per-layer metric except trace.overhead_pct and
// returns the engine rung's chip results as the reference for the lots.
func climb(ctx context.Context, w *workload, rc runConfig, lots []int) (map[string]float64, map[int][]chipRec, error) {
	req0 := w.request(rc.seed, 0)
	var art []byte
	if w.plan {
		var err error
		if art, err = planArtifact(req0); err != nil {
			return nil, nil, err
		}
	}
	r, err := startRungs(ctx, w, rc.seed, rc.dir, art)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	be := &timedBackend{inner: effitest.SimBackend{}}
	so := &stageObserver{batchStart: map[int]time.Time{}}
	er := &engineRung{obs: so, be: be, refs: map[int][]chipRec{}}
	var l ladder
	for _, i := range lots {
		if err := l.climbLot(ctx, er, r, i, w.request(rc.seed, i)); err != nil {
			return nil, nil, err
		}
	}
	fr := r.fleetD.m.Registry().Stats()

	chips := float64(er.chips)
	steps := float64(be.steps.Load())
	perChipUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / chips }
	m := map[string]float64{
		"tester.steps_per_chip":         steps / chips,
		"tester.step_us":                float64(be.ns.Load()) / 1e3 / steps,
		"core.align_us":                 perChipUs(er.align),
		"core.align_solves_per_chip":    float64(so.solves) / chips,
		"core.align_solve_us":           float64(so.solveTime.Nanoseconds()) / 1e3 / float64(max(1, so.solves)),
		"core.measure_us":               perChipUs(so.measure),
		"core.predict_us":               perChipUs(er.predict),
		"core.predicted_paths_per_chip": float64(so.predicted) / chips,
		"core.configure_us":             perChipUs(er.config),
		// Worker-seconds per chip: the lot's wall time on every worker.
		"engine.chip_us":           perChipUs(er.wall * time.Duration(par())),
		"engine.lot_ms":            median(l.engineMs),
		"fleet.queue_wait_ms":      median(l.queueMs),
		"fleet.campaign_ms":        median(l.fleetMs),
		"fleet.overhead_ms":        median(l.fleetOverMs),
		"fleet.registry_hit_ratio": float64(fr.Hits) / float64(max(1, fr.Hits+fr.Misses)),
		"fleet.prepares":           float64(fr.Prepares),
		"http.submit_ms":           median(l.submitMs),
		"http.stream_ms":           median(l.streamMs),
		"http.overhead_ms":         median(l.httpOverMs),
		"http.bytes_per_chip":      float64(l.httpBytes) / chips,
		"coord.run_ms":             median(l.c2Ms),
		"coord.shards_per_run":     float64(l.shards) / float64(len(lots)),
		"coord.retries":            float64(l.retries),
		"coord.overhead_ms":        median(l.coordOverMs),
	}
	m["engine.sched_us"] = m["engine.chip_us"] - m["core.measure_us"] - m["core.predict_us"] - m["core.configure_us"]

	stages, err := prepareStages(req0, er.first.Config(), rc.reps)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range stages {
		m[k] = v
	}
	if m["effitest.calibrate_ms"], err = calibrate(req0, rc.reps); err != nil {
		return nil, nil, err
	}
	if m["stats.mu_ns"], m["stats.mu_batch_ns"], m["la.flops_per_chip"], err = kernels(er.first.Plan()); err != nil {
		return nil, nil, err
	}
	if m["journal.append_us"], m["journal.bytes_per_chip"], err = journalAppends(rc.dir, er.outcomes, 256, journal.WithoutSync()); err != nil {
		return nil, nil, err
	}
	// The same appends with the per-record fsync, on whatever disk holds the
	// temp directory.
	if m["journal.append_disk_us"], _, err = journalAppends(rc.dir, er.outcomes, 32); err != nil {
		return nil, nil, err
	}
	return m, er.refs, nil
}

// prepareStages times Prepare's stages on fresh copies of the circuit —
// the stages include the circuit's covariance build, as Prepare does — and
// the whole of Prepare, which adds the group MVNs and the kernel bake.
func prepareStages(req httpapi.CampaignRequest, cfg effitest.Config, reps int) (map[string]float64, error) {
	var sel, bat, fill, hold, total []float64
	for range max(1, reps) {
		c, err := req.Circuit.Build()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		groups, tested, err := core.SelectPaths(c, cfg)
		if err != nil {
			return nil, err
		}
		sel = append(sel, ms(time.Since(start)))
		start = time.Now()
		batches := core.FormBatches(c, tested, cfg)
		bat = append(bat, ms(time.Since(start)))
		start = time.Now()
		if cfg.FillSlots {
			sig, err := core.PredictSigmas(c, groups, tested)
			if err != nil {
				return nil, err
			}
			core.FillSlots(c, batches, tested, sig, cfg)
		}
		fill = append(fill, ms(time.Since(start)))
		start = time.Now()
		if _, err := core.ComputeHoldBounds(c, cfg); err != nil {
			return nil, err
		}
		hold = append(hold, ms(time.Since(start)))

		fresh, err := req.Circuit.Build()
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := core.Prepare(fresh, cfg); err != nil {
			return nil, err
		}
		total = append(total, ms(time.Since(start)))
	}
	return map[string]float64{
		"core.prepare.select_ms":  median(sel),
		"core.prepare.batches_ms": median(bat),
		"core.prepare.fill_ms":    median(fill),
		"core.prepare.hold_ms":    median(hold),
		"core.prepare.total_ms":   median(total),
	}, nil
}

// calibrate times the period calibration the request's engine runs.
func calibrate(req httpapi.CampaignRequest, reps int) (float64, error) {
	c, err := req.Circuit.Build()
	if err != nil {
		return 0, err
	}
	q, n := req.Config.Quantile, req.Config.CalibChips
	if q == 0 {
		q = 0.8413
	}
	if n == 0 {
		n = 2000
	}
	var t []float64
	for range max(1, reps) {
		start := time.Now()
		effitest.PeriodQuantile(c, 1, n, q)
		t = append(t, ms(time.Since(start)))
	}
	return median(t), nil
}

// kernelRounds and kernelRound set how the prediction kernels are timed:
// that many alternating rounds of at least that long per kernel.
const (
	kernelRounds = 15
	kernelRound  = 5 * time.Millisecond
)

// kernels times the conditional-prediction kernels on the plan's own group
// shapes: MuTo per chip-group, and MuBatchTo at K=8 divided down to the
// same per chip-group unit. It also counts the floating-point operations
// one chip's prediction takes: per group with t measured and u predicted
// paths, 2t² for the two triangular solves, 2ut for Σ_ut·w, and t+u for the
// centring and the mean.
func kernels(pl *effitest.Plan) (muNs, muBatchNs, flops float64, err error) {
	const k = 8
	c := pl.Circuit
	cov := c.CovMatrix()
	tested := map[int]bool{}
	for _, p := range pl.Tested {
		tested[p] = true
	}
	var preds []*stats.CondPredictor
	for _, g := range pl.Groups {
		var known, unknown []int
		for li, p := range g.Paths {
			if tested[p] {
				known = append(known, li)
			} else {
				unknown = append(unknown, li)
			}
		}
		if len(known) == 0 || len(unknown) == 0 {
			continue
		}
		mu := make([]float64, len(g.Paths))
		sigma := la.NewMatrix(len(g.Paths), len(g.Paths))
		for a, pa := range g.Paths {
			mu[a] = c.Paths[pa].Max.Mean
			for b, pb := range g.Paths {
				sigma.Set(a, b, cov[pa][pb])
			}
		}
		mvn, err := stats.NewMVN(mu, sigma)
		if err != nil {
			return 0, 0, 0, err
		}
		pred, err := mvn.Predictor(unknown, known)
		if err != nil {
			return 0, 0, 0, err
		}
		preds = append(preds, pred)
		t, u := float64(len(known)), float64(len(unknown))
		flops += 2*t*t + 2*u*t + t + u
	}
	if len(preds) == 0 {
		return 0, 0, 0, nil
	}
	var ws la.Workspace
	obs := make([][]float64, len(preds))
	dst := make([][]float64, len(preds))
	obsK := make([]*la.Matrix, len(preds))
	dstK := make([]*la.Matrix, len(preds))
	for i, p := range preds {
		// The predicted means sit at the observed means: any values work,
		// the kernels' cost does not depend on them.
		obs[i] = slices.Clone(p.MuT)
		dst[i] = make([]float64, p.NumUnknown())
		obsK[i] = la.NewMatrix(p.NumKnown(), k)
		for r, v := range p.MuT {
			for col := range k {
				obsK[i].Set(r, col, v)
			}
		}
		dstK[i] = la.NewMatrix(p.NumUnknown(), k)
	}
	// The two kernels are timed in alternating rounds and each reports its
	// median round, so a swing in machine speed hits both alike.
	var vec, batch []float64
	for range kernelRounds {
		start, calls := time.Now(), 0
		for time.Since(start) < kernelRound {
			for i, p := range preds {
				ws.Reset()
				p.MuTo(dst[i], obs[i], &ws)
			}
			calls += len(preds)
		}
		vec = append(vec, float64(time.Since(start).Nanoseconds())/float64(calls))
		start, calls = time.Now(), 0
		for time.Since(start) < kernelRound {
			for i, p := range preds {
				ws.Reset()
				p.MuBatchTo(dstK[i], obsK[i], &ws)
			}
			calls += len(preds) * k
		}
		batch = append(batch, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	muNs, muBatchNs = median(vec), median(batch)
	return muNs, muBatchNs, flops, nil
}

// journalAppends times AppendChip of the given outcomes, n appends into a
// fresh journal under dir, and reports the median append and the bytes each
// record adds to the segment.
func journalAppends(dir string, outs []*effitest.ChipOutcome, n int, opts ...journal.Option) (us, bytesPerChip float64, err error) {
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return 0, 0, err
	}
	j, err := journal.Open(jdir, opts...)
	if err != nil {
		return 0, 0, err
	}
	defer j.Close()
	const id = "bench"
	if err := j.Begin(journal.Spec{ID: id, ChipSeed: 1, ChipCount: n}); err != nil {
		return 0, 0, err
	}
	before := j.Stats().Bytes
	t := make([]float64, 0, n)
	for i := range n {
		out := outs[i%len(outs)]
		rec := journal.ChipRecord{Index: i, ChipIndex: i, Outcome: &journal.Outcome{
			Iterations: out.Iterations, ScanBits: out.ScanBits,
			AlignNS: int64(out.AlignDuration), ConfigNS: int64(out.ConfigDuration), PredictNS: int64(out.PredictDuration),
			BoundsLo: out.Bounds.Lo, BoundsHi: out.Bounds.Hi,
			X: out.X, Xi: out.Xi, Configured: out.Configured, Passed: out.Passed,
		}}
		start := time.Now()
		if err := j.AppendChip(id, rec); err != nil {
			return 0, 0, err
		}
		t = append(t, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(t), float64(j.Stats().Bytes-before) / float64(n), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
