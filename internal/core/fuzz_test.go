package core

import (
	"testing"

	"deepmc/internal/checker"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/report"
)

// FuzzAnalyze drives the full static pipeline (parse → verify → DSA →
// trace collection → parallel rule checking) end to end on mutated PIR
// sources, complementing the parser-only fuzz target in internal/ir.
// Invariants: AnalyzeSource never panics, and it returns exactly one of
// (report, error) — never both, never neither.
func FuzzAnalyze(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(p.Source)
	}
	f.Add(`
module seed

type o struct {
	a: int
	b: int
}

func f(p: *o) {
	store %p.a, 1 @3
	flush %p.a    @4
	fence         @5
	ret
}

func main() {
	%p = palloc o
	txbegin
	txadd %p.a
	call f(%p)
	txend
	ret
}
`)
	f.Add("module empty\n")
	f.Add("not pir at all")
	models := []string{"strict", "epoch", "strand"}
	f.Fuzz(func(t *testing.T, src string) {
		// Pick the model from the input so all three rule sets get
		// exercised, deterministically per input.
		model := models[len(src)%len(models)]
		rep, err := AnalyzeSource(src, Config{Model: model, Workers: 2})
		if err != nil && rep != nil {
			t.Fatalf("model %s: AnalyzeSource returned both a report and an error: %v", model, err)
		}
		if err == nil && rep == nil {
			t.Fatalf("model %s: AnalyzeSource returned neither report nor error", model)
		}
		if err == nil {
			assertResumedScanMatchesPerTrace(t, src, Config{Model: model})
		}
	})
}

// assertResumedScanMatchesPerTrace checks that the prefix-resumed module
// scan renders the bytes of scanning every root trace alone, in the same
// order, into one report.
func assertResumedScanMatchesPerTrace(t *testing.T, src string, cfg Config) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := cfg.checkerOptions()
	if err != nil {
		t.Fatal(err)
	}
	ck := checker.New(m, opts)
	got, err := ck.CheckModule().JSON()
	if err != nil {
		t.Fatal(err)
	}
	alone := report.New()
	for _, f := range ck.Analysis.CG.Roots() {
		for _, tr := range ck.Collector.FunctionTraces(f.Name) {
			ck.CheckTrace(tr, alone)
		}
	}
	alone.Sort()
	want, err := alone.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("model %s: prefix-resumed scan differs from per-trace scan\n got: %s\nwant: %s", cfg.Model, got, want)
	}
}
