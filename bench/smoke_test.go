package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// smokeLots is the fixed lot count of the smoke test's runs.
const smokeLots = 2

// TestSmokeEveryWorkload runs every workload at smokeLots lots, untraced and
// traced, and checks that each metric BENCHMARK.json lists is printed with
// its unit, that nothing failed and that the output checks passed.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, bw := range bj.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", bw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			rc := runConfig{seed: 1, lots: smokeLots, reps: 1, dir: t.TempDir()}
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), w, rc, mode{trace: traced}, &out)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			text := out.String()
			if !traced && !strings.Contains(text, "\nfailed_frac 0 ratio\n") {
				t.Errorf("%s: failed_frac 0 not printed\n%s", w.name, text)
			}
			if !res.correct || res.failed != 0 || strings.Contains(text, "CHECK FAILED") {
				t.Fatalf("%s (traced=%v): correct=%v failed=%d\n%s", w.name, traced, res.correct, res.failed, text)
			}
			if !strings.Contains(text, "reference check: 1 lots compared") || !strings.Contains(text, "matches the committed seed-1 digest") {
				t.Errorf("%s (traced=%v): reference or digest check missing\n%s", w.name, traced, text)
			}
			printed := map[string]string{}
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range want {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s (traced=%v): metric %s printed with unit %q, want %q", w.name, traced, m.Name, unit, m.Unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s (traced=%v): last line %q: %v", w.name, traced, lines[len(lines)-1], err)
			}
		}
	}
}
