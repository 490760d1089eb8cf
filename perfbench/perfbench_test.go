package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// runShort runs the benchmark in-process with small inputs and returns
// the parsed last line and the whole output.
func runShort(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"--short", "--seconds", "0.2"}, args...), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

func checkMetrics(t *testing.T, w string, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", w, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", w, m.name)
			continue
		}
		if g.Unit != m.unit {
			t.Errorf("%s: metric %s unit %q, want %q", w, m.name, g.Unit, m.unit)
		}
	}
}

func TestEveryWorkloadEmitsEndToEndMetrics(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res, out := runShort(t, "--workload", spec.name, "--trace", "0")
			checkMetrics(t, spec.name, res.Metrics, endToEndMetrics)
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, out)
			}
			for _, m := range endToEndMetrics {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("metric %s = %v, want > 0", m.name, v)
				}
			}
			if !strings.Contains(out, `"gomaxprocs"`) || !strings.Contains(out, `"samples"`) {
				t.Errorf("run metadata missing:\n%s", out)
			}
		})
	}
}

// layerProbe names one per-layer metric each workload must move, so a
// traced run that silently skipped its layers fails.
var layerProbe = map[string]string{
	"static-apps":  "trace.collect_ms",
	"runtime-kv":   "dynamic.events_per_op",
	"crash-corpus": "crashsim.enumerate_ms",
	"serve-mixed":  "serve.handler_ms",
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res, out := runShort(t, "--workload", spec.name, "--trace", "1")
			checkMetrics(t, spec.name, res.Metrics, perLayerMetrics)
			if !res.Correct {
				t.Errorf("traced run incorrect:\n%s", out)
			}
			if !strings.Contains(out, "trace overhead:") || !strings.Contains(out, `"verdicts_equal":true`) {
				t.Errorf("traced run did not report overhead and equal verdicts:\n%s", out)
			}
			if v := res.Metrics[layerProbe[spec.name]].Value; !(v > 0) {
				t.Errorf("%s = %v, want > 0", layerProbe[spec.name], v)
			}
		})
	}
}

// TestWrongExpectedAnswerFails corrupts each workload's expected answer
// and requires the verdict check to catch it.
func TestWrongExpectedAnswerFails(t *testing.T) {
	corrupt := map[string]func(instance){
		"static-apps": func(in instance) {
			s := in.(*staticApps)
			for i := range s.inputs {
				if !s.inputs[i].generated {
					s.inputs[i].truth = map[string]bool{}
				}
			}
		},
		"runtime-kv": func(in instance) {
			kv := in.(*runtimeKV)
			for a := range kv.model[0] {
				for k := range kv.model[0][a] {
					kv.model[0][a][k] ^= 2
				}
			}
		},
		"crash-corpus": func(in instance) {
			cc := in.(*crashCorpus)
			cc.ops[0].fixed = !cc.ops[0].fixed
		},
		"serve-mixed": func(in instance) {
			sm := in.(*serveMixed)
			for i := range sm.mods {
				if sm.mods[i].want != nil {
					sm.mods[i].want = append([]byte(nil), sm.mods[i].want...)
					sm.mods[i].want[len(sm.mods[i].want)-1] ^= 1
				}
			}
		},
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			inst, err := spec.setup(options{short: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			corrupt[spec.name](inst)
			ph, err := measure(inst, spec.clients, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if ph.correct() || ph.failed == 0 {
				t.Errorf("corrupted answer passed: failed=%d known=%d unexpected=%v", ph.failed, ph.known, ph.unknown)
			}
		})
	}
}

func TestKnownDefectClassification(t *testing.T) {
	redis0 := staticInput{name: "Redis", generated: true, known: seed0Defects["Redis"]}
	if fail, known := checkStatic(redis0, nil); fail != "" || known {
		t.Errorf("clean generated module: fail=%q known=%v", fail, known)
	}
	s01 := report.Warning{Rule: report.RuleUnflushedWrite, File: "fn_l2_20.c", Line: 22}
	if fail, known := checkStatic(redis0, []report.Warning{s01}); fail == "" || !known {
		t.Errorf("listed DMC-S01 on Redis: fail=%q known=%v, want a known failure", fail, known)
	}
	other := report.Warning{Rule: report.RuleRedundantFlush, File: "fn_l2_20.c", Line: 22}
	if fail, known := checkStatic(redis0, []report.Warning{other}); fail == "" || known {
		t.Errorf("another rule at the listed line: fail=%q known=%v, want an unexpected failure", fail, known)
	}
	extra := report.Warning{Rule: report.RuleUnflushedWrite, File: "fn_l1_3.c", Line: 9}
	if fail, known := checkStatic(redis0, []report.Warning{s01, extra}); fail == "" || known {
		t.Errorf("extra DMC-S01 on Redis: fail=%q known=%v, want an unexpected failure", fail, known)
	}
	if fail, known := checkStatic(redis0, []report.Warning{s01, s01}); fail == "" || known {
		t.Errorf("listed DMC-S01 reported twice: fail=%q known=%v, want an unexpected failure", fail, known)
	}
	nstore0 := staticInput{name: "NStore", generated: true, known: seed0Defects["NStore"]}
	if fail, known := checkStatic(nstore0, []report.Warning{s01}); fail == "" || known {
		t.Errorf("Redis's DMC-S01 on NStore: fail=%q known=%v, want an unexpected failure", fail, known)
	}
	svc := staticInput{name: "svc_7_c0_0", generated: true}
	if fail, known := checkStatic(svc, []report.Warning{s01}); fail == "" || known {
		t.Errorf("DMC-S01 on a serve module: fail=%q known=%v, want an unexpected failure", fail, known)
	}

	corp := staticInput{name: "PMDK", truth: map[string]bool{s01.Key(): true}}
	if fail, _ := checkStatic(corp, []report.Warning{s01}); fail != "" {
		t.Errorf("exact corpus match failed: %s", fail)
	}
	if fail, known := checkStatic(corp, nil); fail == "" || known {
		t.Errorf("missing corpus warning passed: fail=%q known=%v", fail, known)
	}
}

// TestKnownDefectIsNotFailed keeps the known defect out of the failed
// count, so a correct run reports failed == 0 whatever its round count.
func TestKnownDefectIsNotFailed(t *testing.T) {
	var c clientRec
	c.op(0, "a", "", false)
	c.op(0, "b", "Redis: known", true)
	c.op(0, "c", "PMDK: mismatch", false)
	if c.attempted != 3 || c.known != 1 || c.failed != 1 {
		t.Errorf("attempted=%d known=%d failed=%d, want 3 1 1", c.attempted, c.known, c.failed)
	}
}

// TestRedrawStoresKeepsStructure checks that another seed changes only
// stored constants of a Table 9 module.
func TestRedrawStoresKeepsStructure(t *testing.T) {
	spec := core.AppSpecs()[0]
	spec.Funcs /= 20
	src := ir.Print(core.GenerateApp(spec))
	got := redrawStores(src, 7)
	if got == src {
		t.Fatal("seed 7 changed no stored constant")
	}
	if redrawStores(src, 7) != got {
		t.Error("same seed gave different inputs")
	}
	a, b := strings.Split(src, "\n"), strings.Split(got, "\n")
	if len(a) != len(b) {
		t.Fatalf("%d lines, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] && !(storeConst.MatchString(a[i]) && storeConst.MatchString(b[i])) {
			t.Errorf("line %d changed beyond its constant: %q -> %q", i+1, a[i], b[i])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's names and units in
// step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) || len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: end_to_end %d/%d per_layer %d/%d",
			len(bj.EndToEnd), len(endToEndMetrics), len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end_to_end %d: %s/%s, benchmark %s/%s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per_layer %d: %s/%s, benchmark %s/%s", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}
