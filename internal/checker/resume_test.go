package checker_test

import (
	"runtime"
	"testing"

	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// scanModule is one module of the differential matrix.
type scanModule struct {
	name  string
	m     *ir.Module
	model checker.Model
	// forked marks the modules whose scans must resume somewhere.
	forked bool
}

// forkSrc forks its paths inside an open transaction, after an epoch
// end, within a strand and after repeated flushes, so snapshots hold
// every part of the rule state.
const forkSrc = `
module forks

type rec struct {
	a: int
	b: int
	c: int
}

func tail(r: *rec, c) {
	condbr %c, one, two  @39
one:
	store %r.b, 1        @40
	flush %r             @41
	br out
two:
	flush %r.a           @42
	br out
out:
	fence                @43
	ret
}

func main(c) {
	%r = palloc rec
	epochbegin           @1
	store %r.c, 1        @2
	flush %r.c           @3
	epochend             @4
	txbegin              @5
	strandbegin 1        @6
	store %r.a, 1        @7
	flush %r.a           @8
	flush %r.a           @9
	condbr %c, l, rr     @10
l:
	store %r.b, 2        @11
	strandend 1          @12
	br j
rr:
	strandend 1          @13
	br j
j:
	strandbegin 2        @14
	store %r.a, 3        @15
	strandend 2          @16
	txend                @17
	call tail(%r, %c)    @18
	ret
}
`

// scanModules returns the four corpus programs, the three Table 9 apps
// generated at a fifth of their size, and forkSrc.
func scanModules(t *testing.T) []scanModule {
	t.Helper()
	out := []scanModule{{"forks", ir.MustParse(forkSrc), checker.Strict, true}}
	for _, p := range corpus.All() {
		m, err := p.Module()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scanModule{p.Name, m, p.Model, false})
	}
	for _, spec := range core.AppSpecs() {
		spec.Funcs /= 5
		out = append(out, scanModule{spec.Name, core.GenerateApp(spec), checker.Strict, true})
	}
	return out
}

// targets returns the functions CheckModule scans, in its order.
func targets(ck *checker.Checker) []string {
	if ck.Opts.AllFunctions {
		return ck.Analysis.Module.FuncNames()
	}
	var fns []string
	for _, f := range ck.Analysis.CG.Roots() {
		fns = append(fns, f.Name)
	}
	return fns
}

// perTraceReport scans every target trace alone, in CheckModule's order,
// into one report.
func perTraceReport(ck *checker.Checker) *report.Report {
	rep := report.New()
	for _, fn := range targets(ck) {
		for _, t := range ck.Collector.FunctionTraces(fn) {
			ck.CheckTrace(t, rep)
		}
	}
	rep.Sort()
	return rep
}

func mustJSON(t *testing.T, rep *report.Report) string {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPrefixResumedScanMatchesPerTrace is the differential test of the
// prefix-resumed module scan: it must render exactly the bytes that
// scanning each trace alone with CheckTrace renders, under every model,
// both contracts, a disabled pass and a trace-entry budget small enough
// to truncate traces.  Deduplication hides most slips in a resumed
// scan, so each trace's final rule state is compared with a lone
// scan's as well.
func TestPrefixResumedScanMatchesPerTrace(t *testing.T) {
	type config struct {
		name string
		set  func(*checker.Options)
	}
	var configs []config
	for _, model := range []checker.Model{checker.Strict, checker.Epoch, checker.Strand} {
		model := model
		configs = append(configs,
			config{model.String() + "/x86", func(o *checker.Options) { o.Model = model }},
			config{model.String() + "/cxl", func(o *checker.Options) {
				o.Model = model
				o.Contract = pmcontract.CXLContract(pmcontract.WholeDomain())
			}})
	}
	configs = append(configs,
		config{"disabled-pass", func(o *checker.Options) {
			o.Disabled = map[report.Rule]bool{report.RuleUnflushedWrite: true}
		}},
		config{"budget", func(o *checker.Options) { o.Trace.MaxTraceEntries = 8 }},
		config{"all-functions", func(o *checker.Options) { o.AllFunctions = true }},
	)
	for _, sm := range scanModules(t) {
		resumed := 0
		for _, cf := range configs {
			opts := checker.DefaultOptions(sm.model)
			cf.set(&opts)
			ck := checker.New(sm.m, opts)
			got := mustJSON(t, ck.CheckModule())
			if want := mustJSON(t, perTraceReport(ck)); got != want {
				t.Errorf("%s %s: prefix-resumed scan differs from per-trace scan\n got: %s\nwant: %s",
					sm.name, cf.name, got, want)
			}
			par := ck.CheckModuleParallel(2)
			par.Skipped = nil
			if p := mustJSON(t, par); p != got {
				t.Errorf("%s %s: parallel scan differs from CheckModule\n got: %s\nwant: %s", sm.name, cf.name, p, got)
			}
			if cf.name == "budget" && !anyTruncated(ck) {
				t.Errorf("%s: the budget config truncated no function", sm.name)
			}
			for _, fn := range targets(ck) {
				n, mismatch := ck.ResumeMismatch(fn)
				if mismatch != "" {
					t.Errorf("%s %s: %s", sm.name, cf.name, mismatch)
				}
				resumed += n
			}
		}
		if sm.forked && resumed == 0 {
			t.Errorf("%s: no trace resumed from a snapshot", sm.name)
		}
	}
}

func anyTruncated(ck *checker.Checker) bool {
	for _, fn := range ck.Analysis.Module.FuncNames() {
		if ck.Collector.Truncated(fn) {
			return true
		}
	}
	return false
}

// withoutForks copies traces without their fork positions, as a trace
// built or stored without them would arrive.
func withoutForks(ts []*trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, len(ts))
	for i, t := range ts {
		cp := *t
		cp.Forks = nil
		out[i] = &cp
	}
	return out
}

// TestSeededTracesWithoutForksScanAlike seeds collectors with traces
// that carry no fork positions: every function of a fresh checker, and
// only the callees of a checker whose roots are collected afresh.  Both
// must scan to the report the freshly collected traces give.
func TestSeededTracesWithoutForksScanAlike(t *testing.T) {
	for _, sm := range scanModules(t) {
		opts := checker.DefaultOptions(sm.model)
		fresh := checker.New(sm.m, opts)
		want := mustJSON(t, fresh.CheckModule())

		all := checker.New(sm.m, opts)
		for _, fn := range sm.m.FuncNames() {
			all.Collector.Seed(fn, withoutForks(fresh.Collector.FunctionTraces(fn)), fresh.Collector.Truncated(fn))
		}
		if got := mustJSON(t, all.CheckModule()); got != want {
			t.Errorf("%s: all functions seeded without forks:\n got: %s\nwant: %s", sm.name, got, want)
		}
		if fns := all.Collector.ComputedFuncs(); len(fns) != 0 {
			t.Errorf("%s: seeded collector explored %v", sm.name, fns)
		}

		roots := map[string]bool{}
		for _, fn := range targets(fresh) {
			roots[fn] = true
		}
		callees := &checker.Checker{Opts: opts, Analysis: fresh.Analysis, Collector: trace.NewCollector(fresh.Analysis, opts.Trace)}
		for _, fn := range sm.m.FuncNames() {
			if !roots[fn] {
				callees.Collector.Seed(fn, withoutForks(fresh.Collector.FunctionTraces(fn)), fresh.Collector.Truncated(fn))
			}
		}
		if got := mustJSON(t, callees.CheckModule()); got != want {
			t.Errorf("%s: callees seeded without forks:\n got: %s\nwant: %s", sm.name, got, want)
		}
	}
}

// TestScanAllocBound bounds the bytes one serial rule scan of the
// Memcached-scale Table 9 module allocates, over traces collected up
// front.  The scan is deterministic, so the figure is stable from run to
// run; a return to a fresh scanner with per-trace maps for every trace,
// rescanning every shared prefix (about 47 MB here), fails it.
func TestScanAllocBound(t *testing.T) {
	const boundMB = 2
	if testing.Short() {
		t.Skip("app-scale scan in -short mode")
	}
	var spec core.AppSpec
	for _, s := range core.AppSpecs() {
		if s.Name == "Memcached" {
			spec = s
		}
	}
	m := core.GenerateApp(spec)
	ck := checker.New(m, checker.DefaultOptions(checker.Strict))
	for _, fn := range m.FuncNames() {
		ck.Collector.FunctionTraces(fn)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ck.CheckModule()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("Memcached-scale rule scan allocated %.2f MB in %d allocations", mb, after.Mallocs-before.Mallocs)
	if mb > boundMB {
		t.Errorf("rule scan allocated %.2f MB, bound %d MB", mb, boundMB)
	}
}
