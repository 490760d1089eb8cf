package main

import (
	"context"
	"fmt"
	"time"

	"deepmc/internal/checker"
	"deepmc/internal/corpus"
	"deepmc/internal/crashsim"
	"deepmc/internal/dynamic"
	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

// crash-corpus: pruned crash enumeration of the 15 corpus crash cases
// and the inter-thread cases, buggy and fixed.  An op enumerates one
// harness under one fault class (or none), with the fault schedule
// seeded from the benchmark seed.  The expected answer is the case's
// label: a buggy harness must reproduce its bug and a fixed one must
// enumerate clean, under every fault class.
var crashCorpusSpec = workloadSpec{
	name:    "crash-corpus",
	clients: 1,
	// A round is 170 small ops.  p90 sits among the heaviest harnesses
	// (the hash-map cases) with thousands of samples beyond it; p95 and
	// p99 move with host-level stalls (CPU steal) more than with the
	// program.
	tailPct: 90,
	// One set-up parses ~34 harnesses in a few ms: repeat it so the
	// median is steady.
	setupReps: 41,
	setup:     setupCrashCorpus,
}

type crashOp struct {
	c      *crashsim.CrossCase
	mod    *ir.Module
	fixed  bool
	faults *faultinj.Config
	label  string
	static bool // corpus case (static flag oracle) vs inter-thread (dynamic)
}

type crashCorpus struct {
	ops []crashOp
	tr  *tracer
	acc struct {
		n                                  int
		steps, crashes, pruned, injections float64
	}
}

func setupCrashCorpus(o options, tr *tracer) (instance, error) {
	cases, err := corpus.CrashCases()
	if err != nil {
		return nil, err
	}
	it, err := corpus.InterThreadCases()
	if err != nil {
		return nil, err
	}
	nStatic := len(cases)
	all := append(cases, it...)
	if o.short {
		all = append(all[:2:2], all[nStatic])
		nStatic = 2
	}
	// Seed 0 uses fault seed 1, the CLI default.
	fseed := o.seed + 1
	faults := []*faultinj.Config{nil}
	for _, cl := range faultinj.AllClasses() {
		faults = append(faults, &faultinj.Config{Classes: []faultinj.Class{cl}, Rate: 1, Seed: fseed})
	}
	cc := &crashCorpus{tr: tr}
	for i := range all {
		c := &all[i]
		for _, fixed := range []bool{false, true} {
			for _, fc := range faults {
				op := crashOp{c: c, mod: c.Buggy, fixed: fixed, static: i < nStatic, faults: fc}
				if fixed {
					op.mod = c.Fixed
				}
				name := "none"
				if fc != nil {
					name = fc.Classes[0].String()
				}
				variant := "buggy"
				if fixed {
					variant = "fixed"
				}
				op.label = fmt.Sprintf("%s %s:%d %s %s", c.Program, c.File, c.Line, variant, name)
				cc.ops = append(cc.ops, op)
			}
		}
	}
	return cc, nil
}

func (cc *crashCorpus) round(rec *roundRec) error {
	cl := rec.client(0)
	for i := range cc.ops {
		op := &cc.ops[i]
		o := crashsim.Options{Prune: true, Workers: 1, Faults: op.faults}
		var sp int32
		if cc.tr != nil {
			sp = cc.tr.start("crashsim.enumerate", -1)
		}
		t0 := time.Now()
		res, err := crashsim.EnumerateOpts(op.mod, op.c.Entry, op.c.Invariant, o)
		lat := time.Since(t0)
		if cc.tr != nil {
			cc.tr.finish(sp)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", op.label, err)
		}
		fail := ""
		switch {
		case res.Partial:
			fail = op.label + ": partial enumeration"
		case !op.fixed && res.Clean():
			fail = op.label + ": bug not reproduced"
		case op.fixed && !res.Clean():
			fail = op.label + ": fixed harness violates its invariant"
		}
		cl.op(lat, op.label+" "+digest([]byte(res.Detail()+res.FaultLog)), fail, false)
		if cc.tr != nil {
			cc.acc.n++
			cc.acc.steps += float64(res.TotalSteps)
			cc.acc.crashes += float64(res.CrashesRun)
			cc.acc.pruned += float64(res.Pruned + res.Deduped)
			cc.acc.injections += float64(res.Injections)
		}
	}
	return nil
}

// layers probes the two layers the timed op reaches only inside
// crashsim: one interpreter run per op (crashsim.FinalImage) and the
// flag oracle per case (the static checker for corpus cases, the
// dynamic checker for inter-thread ones).
func (cc *crashCorpus) layers(_, _ *phase) (map[string]float64, error) {
	ctx := context.Background()
	for i := range cc.ops {
		op := &cc.ops[i]
		sp := cc.tr.start("interp.exec", -1)
		_, err := crashsim.FinalImage(ctx, op.mod, op.c.Entry, crashsim.Options{Faults: op.faults})
		cc.tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("%s final image: %w", op.label, err)
		}
	}
	for i := range cc.ops {
		op := &cc.ops[i]
		if op.fixed || op.faults != nil {
			continue
		}
		sp := cc.tr.start("checker.flag", -1)
		if op.static {
			checker.Check(op.mod, checker.Strict)
		} else {
			rt := dynamic.NewRuntime(true)
			if _, err := interp.New(op.mod, rt).Run(op.c.Entry); err != nil {
				return nil, fmt.Errorf("%s dynamic flag run: %w", op.label, err)
			}
			rt.Checker.Report()
		}
		cc.tr.finish(sp)
	}
	st := cc.tr.stats()
	n := float64(cc.acc.n)
	if n == 0 {
		return nil, fmt.Errorf("no traced crash ops")
	}
	frac := 0.0
	if cc.acc.steps > 0 {
		frac = cc.acc.pruned / cc.acc.steps
	}
	return map[string]float64{
		"interp.exec_ms":        st["interp.exec"].meanMs(),
		"crashsim.enumerate_ms": st["crashsim.enumerate"].meanMs(),
		"crashsim.steps":        cc.acc.steps / n,
		"crashsim.crashes_run":  cc.acc.crashes / n,
		"crashsim.pruned_frac":  frac,
		"faultinj.injections":   cc.acc.injections / n,
		"checker.flag_ms":       st["checker.flag"].meanMs(),
	}, nil
}

func (cc *crashCorpus) close() {}
