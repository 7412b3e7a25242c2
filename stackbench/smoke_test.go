package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestDefinitionsMatch checks that the harness's workload and metric
// tables say what BENCHMARK.json says.
func TestDefinitionsMatch(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		file []benchmarkMetric
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the harness %d", len(c.file), len(c.defs))
		}
		for i, m := range c.file {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the harness %s %s %s", i, m, d.name, d.unit, d.better)
			}
		}
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var tinySize = size{
	rmatScale: 8, rmatSources: 3,
	meshSide: 12, meshSources: 3,
	serveScale: 8, requests: 8,
	progSide: 8, progSources: 3,
	setupReps: 2, replayOps: 1, speedupOps: 1,
}

// TestSmoke runs every workload once at tiny sizes, untraced and
// traced, and checks that each result line is correct and names
// exactly the metrics, with the units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	units := func(trace bool) map[string]string {
		m := map[string]string{}
		if trace {
			for _, d := range bf.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range bf.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, measure: 300 * time.Millisecond, trace: trace, size: tinySize}
			var out, errOut bytes.Buffer
			if code := execute(cfg, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			want := units(trace)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := line.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
			if !trace {
				for _, name := range []string{"latency_p90_ms", "latency_p99_ms", "error_rate"} {
					if !strings.Contains(out.String(), name) {
						t.Errorf("%s: report does not print %s", w.name, name)
					}
				}
			}
		}
	}
}
