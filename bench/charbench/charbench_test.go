package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, p)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, p)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json names are emitted, that no
// end-to-end metric is zero, and that the pinned smoke digests match.
func TestSmoke(t *testing.T) {
	b := readBenchmark(t)
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		pinned := p.pinned("smoke", 1, sp.name)
		if len(pinned) == 0 {
			t.Errorf("%s: no pinned smoke digests for seed 1", sp.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(config{workload: sp.name, seed: 1, smoke: true, trace: traced, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if res.Failed > 0 || res.Attempted != smokeUnits {
				t.Errorf("%s traced=%v: failed=%d attempted=%d problems=%v", sp.name, traced, res.Failed, res.Attempted, res.Problems)
			}
			var want []string
			if traced {
				for _, m := range b.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range b.EndToEnd {
					want = append(want, m.Name)
					if res.Metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, m.Name, res.Metrics[m.Name])
					}
				}
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: emitted %v, BENCHMARK.json names %v", sp.name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: emitted %v, BENCHMARK.json names %v", sp.name, traced, got, want)
				}
			}
			line, err := resultLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal(line, &out); err != nil || len(out) != 4 ||
				out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
				t.Errorf("%s: result line %s lacks the four keys", sp.name, line)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
