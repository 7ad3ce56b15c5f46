// Command bench is the repository benchmark: four fixed-work, closed-loop
// workloads over the EffiTest stack, each reporting the end-to-end metrics
// a user of the service sees and, in a separate traced run, one metric per
// layer (see README.md).
//
//	bash bench/run.sh --workload engine-align --seed 1            # end-to-end
//	bash bench/run.sh --workload daemon-warm --seed 1 --trace 1   # per-layer
//	cd bench && go run . -workload all -seed 1 -trace spans.jsonl
//
// Every input is generated from -seed in this process. Each run completes
// the workload's fixed lots (and keeps going until -seconds have passed),
// checks its outputs, prints "name value unit" lines and, last, one JSON
// object with the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"chips_per_s", "chips/s"},
	{"lot_p50_ms", "ms"},
	{"lot_p95_ms", "ms"},
	{"setup_s", "s"},
	{"tester_iters_per_chip", "iters"},
	{"yield_pct", "%"},
	{"alloc_kb_per_chip", "KiB"},
	{"heap_p95_mb", "MiB"},
}

// perLayer are the metrics of a traced run, ordered outside in.
var perLayer = []metricDef{
	{"tester.steps_per_chip", "count"},
	{"tester.step_us", "us"},
	{"core.align_us", "us"},
	{"core.align_solves_per_chip", "count"},
	{"core.align_solve_us", "us"},
	{"core.measure_us", "us"},
	{"core.predict_us", "us"},
	{"core.predicted_paths_per_chip", "count"},
	{"core.configure_us", "us"},
	{"core.prepare.select_ms", "ms"},
	{"core.prepare.batches_ms", "ms"},
	{"core.prepare.fill_ms", "ms"},
	{"core.prepare.hold_ms", "ms"},
	{"core.prepare.total_ms", "ms"},
	{"effitest.calibrate_ms", "ms"},
	{"stats.mu_ns", "ns"},
	{"stats.mu_batch_ns", "ns"},
	{"la.flops_per_chip", "flops"},
	{"engine.chip_us", "us"},
	{"engine.sched_us", "us"},
	{"engine.lot_ms", "ms"},
	{"fleet.queue_wait_ms", "ms"},
	{"fleet.campaign_ms", "ms"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.registry_hit_ratio", "ratio"},
	{"fleet.prepares", "count"},
	{"journal.append_us", "us"},
	{"journal.append_disk_us", "us"},
	{"journal.bytes_per_chip", "B"},
	{"http.submit_ms", "ms"},
	{"http.stream_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"http.bytes_per_chip", "B"},
	{"coord.run_ms", "ms"},
	{"coord.shards_per_run", "count"},
	{"coord.retries", "count"},
	{"coord.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// result is one workload run: its metrics and the correctness accounting
// of the final JSON line.
type result struct {
	metrics   map[string]float64
	defs      []metricDef
	correct   bool
	attempted int
	failed    int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes "name value unit" per metric, then the JSON line.
// Metrics missing from the result (a tail percentile over too few lots) are
// printed as n/a and left out of the JSON.
func printResult(out io.Writer, res result) error {
	jr := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range res.defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(out, "%s n/a %s\n", d.name, d.unit)
			continue
		}
		fmt.Fprintf(out, "%s %.6g %s\n", d.name, v, d.unit)
		jr.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// mode selects what a run reports.
type mode struct {
	trace     bool
	traceFile string // spans are written here when set
}

func parseTrace(v string) mode {
	switch v {
	case "", "0":
		return mode{}
	case "1":
		return mode{trace: true}
	}
	return mode{trace: true, traceFile: v}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "engine-align | daemon-warm | daemon-cold | coord-sharded | all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "keep measuring past the fixed lots until this many seconds have passed")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics; any other value: per-layer metrics, spans written to that file")
	repeat := fs.Int("repeat", 1, "run each workload N times and report every metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown -workload %q (want one of %s or all)\n", *name, workloadNames())
		return 2
	}
	if *repeat < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -repeat must be positive and -seconds non-negative")
		return 2
	}
	dir, err := os.MkdirTemp("", "effibench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := runConfig{seed: *seed, seconds: *seconds, reps: 5, setupFloor: 3 * time.Second / 2, dir: dir}
	md := parseTrace(*trace)
	ok := true
	for _, w := range ws {
		res, err := repeatRuns(context.Background(), w, rc, md, *repeat, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		ok = ok && res.correct
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output check failed")
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// repeatRuns runs a workload n times; for n > 1 it prints each metric's
// median and quartiles over the runs and returns the medians.
func repeatRuns(ctx context.Context, w *workload, rc runConfig, md mode, n int, out io.Writer) (result, error) {
	var runs []result
	for k := range n {
		if n > 1 {
			fmt.Fprintf(out, "run %d/%d\n", k+1, n)
		}
		res, err := runWorkload(ctx, w, rc, md, out)
		if err != nil {
			return result{}, err
		}
		if n == 1 {
			return res, nil
		}
		runs = append(runs, res)
	}
	agg := result{metrics: map[string]float64{}, defs: runs[0].defs, correct: true}
	fmt.Fprintf(out, "summary %s over %d runs: median q1 q3 iqr/median\n", w.name, n)
	for _, d := range agg.defs {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.metrics[d.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) < 2 {
			continue
		}
		med := median(vs)
		q1, q3, _ := quartiles(vs)
		agg.metrics[d.name] = med
		fmt.Fprintf(out, "summary %s %.6g %s q1=%.6g q3=%.6g spread=%.2f%%\n", d.name, med, d.unit, q1, q3, 100*(q3-q1)/math.Abs(med))
	}
	for _, r := range runs {
		agg.correct = agg.correct && r.correct
		agg.attempted += r.attempted
		agg.failed += r.failed
	}
	return agg, nil
}

// runWorkload runs one workload in the given mode, printing its report
// lines (everything but the final JSON) to out.
func runWorkload(ctx context.Context, w *workload, rc runConfig, md mode, out io.Writer) (result, error) {
	fixed := rc.fixedLots(w)
	fmt.Fprintf(out, "workload %s: closed loop, %d caller(s), %d worker(s), %d fixed lots of %d chips, seed %d\n",
		w.name, min(w.callers, par()), par(), fixed, w.lotChips, rc.seed)
	if w.kind != kindEngine {
		fmt.Fprintf(out, "journal %s (no fsync; journal.append_disk_us times the fsync)\n", rc.dir)
	}
	committed, err := loadDigests()
	if err != nil {
		return result{}, err
	}
	if !md.trace {
		return runEndToEnd(ctx, w, rc, committed, out)
	}
	return runTraced(ctx, w, rc, md, committed, out)
}

func runEndToEnd(ctx context.Context, w *workload, rc runConfig, committed committedDigests, out io.Writer) (result, error) {
	srv, setup, err := timedSetup(ctx, w, rc, hooks{})
	if err != nil {
		return result{}, err
	}
	p := measure(ctx, w, rc, srv, nil)
	srv.close()
	fmt.Fprintf(out, "setup builds %d: min %.6f s, max %.6f s\n", len(setup), slices.Min(setup), slices.Max(setup))

	refs, err := referenceRuns(ctx, w, rc.seed, slices.Sorted(maps.Keys(p.checks)))
	if err != nil {
		return result{}, err
	}
	res := passResult(w, rc, p, refs, committed, out)
	res.defs = endToEnd
	res.metrics = map[string]float64{
		"chips_per_s":           float64(p.chips) / p.wall.Seconds(),
		"lot_p50_ms":            median(p.lotMs),
		"setup_s":               median(setup),
		"tester_iters_per_chip": float64(p.iters) / float64(p.wchips),
		"yield_pct":             100 * float64(p.passed) / float64(p.wchips),
		"alloc_kb_per_chip":     float64(p.alloc) / 1024 / float64(p.chips),
	}
	for name, xs := range map[string][]float64{"lot_p95_ms": p.lotMs, "heap_p95_mb": p.heapMB} {
		if v, ok := percentile(xs, 0.95); ok {
			res.metrics[name] = v
		} else {
			fmt.Fprintf(out, "%s refused: %d lots, need at least %d\n", name, len(xs), minSamples(0.95))
		}
	}
	fmt.Fprintf(out, "failed_frac %.6g ratio\n", float64(res.failed)/float64(res.attempted))
	return res, nil
}

// runTraced measures the per-layer metrics. Its two passes, untraced and
// traced, run only the fixed lots: they feed trace.overhead_pct and the
// span table, not a bounded metric, so they skip the -seconds extension.
func runTraced(ctx context.Context, w *workload, rc runConfig, md mode, committed committedDigests, out io.Writer) (result, error) {
	once := rc
	once.reps, once.setupFloor, once.seconds = 1, 0, 0
	srv, _, err := timedSetup(ctx, w, once, hooks{})
	if err != nil {
		return result{}, err
	}
	plain := measure(ctx, w, once, srv, nil)
	srv.close()

	rec := newRecorder()
	srv, _, err = timedSetup(ctx, w, once, hooks{observer: newChipSpans(rec, w.lotChips), tr: rec})
	if err != nil {
		return result{}, err
	}
	traced := measure(ctx, w, once, srv, rec)
	srv.close()

	m, refs, err := climb(ctx, w, rc, ladderLots(rc.fixedLots(w)))
	if err != nil {
		return result{}, err
	}
	plainCPS := float64(plain.chips) / plain.wall.Seconds()
	tracedCPS := float64(traced.chips) / traced.wall.Seconds()
	m["trace.overhead_pct"] = 100 * (plainCPS - tracedCPS) / plainCPS

	res := passResult(w, rc, plain, refs, committed, out)
	tres := passResult(w, rc, traced, refs, committed, out)
	res.correct = res.correct && tres.correct
	res.attempted += tres.attempted
	res.failed += tres.failed
	res.defs, res.metrics = perLayer, m

	printSelfTimes(out, rec.snapshot())
	if md.traceFile != "" {
		if err := writeSpans(md.traceFile, rec); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", md.traceFile)
	}
	return res, nil
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passResult checks a pass's outputs — the committed digest where one
// exists, and every reference lot against the in-process engine — prints
// the verdicts, and fills the correctness accounting.
func passResult(w *workload, rc runConfig, p *pass, refs map[int][]chipRec, committed committedDigests, out io.Writer) result {
	fixed := rc.fixedLots(w)
	res := result{correct: true, attempted: p.chips + p.lots, failed: p.failed}
	var problems []string
	problems = append(problems, p.errs...)
	fmt.Fprintf(out, "lots %d (%d fixed), chips %d, wall %.3f s\n", p.lots, fixed, p.chips, p.wall.Seconds())
	if p.window != fixed {
		problems = append(problems, fmt.Sprintf("%d of %d fixed lots completed", p.window, fixed))
	} else {
		digest := runDigest(p.digests)
		checked, err := checkDigest(committed, w.name, rc.seed, fixed, digest)
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case checked:
			fmt.Fprintf(out, "digest %s matches the committed seed-1 digest\n", digest)
		default:
			fmt.Fprintf(out, "digest %s (no committed digest for this seed and lot count)\n", digest)
		}
	}
	compared := 0
	for i, recs := range p.checks {
		ref, ok := refs[i]
		if !ok {
			continue
		}
		compared++
		if err := sameRecs(recs, ref); err != nil {
			problems = append(problems, fmt.Sprintf("lot %d differs from the in-process engine: %v", i, err))
		}
	}
	fmt.Fprintf(out, "reference check: %d lots compared with an in-process engine\n", compared)
	if compared == 0 {
		problems = append(problems, "no lot was compared with the in-process engine")
	}
	for _, pr := range problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", pr)
	}
	res.correct = len(problems) == 0
	return res
}
