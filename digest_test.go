// Digest pins: the exact bytes of every collected trace and every
// rendered report for the Table 9 app modules and the four corpus
// programs.  Trace collection is a pure function of (module, DSA, trace
// options); any change to its representation or its exploration order
// that is meant to be invisible must leave these digests unchanged.
package deepmc_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"deepmc/internal/checker"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/trace"
)

// digestInput is one pinned module: its PIR text, its declared model and
// the first 8 bytes (hex) of its trace and report digests.
type digestInput struct {
	name, src   string
	model       checker.Model
	trace, json string
}

func digestInputs(tb testing.TB) []digestInput {
	tb.Helper()
	want := map[string][2]string{
		"Memcached":  {"83ad7a8d08b3e895", "7b6d58dd52a5b08f"},
		"Redis":      {"1a076279bb94f7eb", "ab343c77f0f1105a"},
		"NStore":     {"e8c7b94b583fd9fd", "0728cec2ac2b1cea"},
		"PMDK":       {"dc847b485cace534", "27596cd470d461d9"},
		"NVM-Direct": {"601068f4404cea97", "205744e9932434af"},
		"PMFS":       {"9939e644eafaa27a", "44815e2cfd9d5552"},
		"Mnemosyne":  {"854dc42554a63c34", "cefa5576353df037"},
	}
	var in []digestInput
	for _, spec := range core.AppSpecs() {
		w := want[spec.Name]
		in = append(in, digestInput{spec.Name, ir.Print(core.GenerateApp(spec)), checker.Strict, w[0], w[1]})
	}
	for _, p := range corpus.All() {
		w := want[p.Name]
		in = append(in, digestInput{p.Name, p.Source, p.Model, w[0], w[1]})
	}
	return in
}

func parseDigestModule(tb testing.TB, src string) *ir.Module {
	tb.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		tb.Fatal(err)
	}
	return m
}

func short(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// traceDigest hashes every function's traces, in declaration order and
// collection order, followed by the function's budget flag.
func traceDigest(m *ir.Module, model checker.Model) string {
	opts := checker.DefaultOptions(model)
	opts.DSA.FieldSensitive = true
	col := trace.NewCollector(dsa.Analyze(m, opts.DSA), opts.Trace)
	h := sha256.New()
	for _, fn := range m.FuncNames() {
		for _, t := range col.FunctionTraces(fn) {
			h.Write([]byte(t.String()))
		}
		fmt.Fprintf(h, "trunc=%v\n", col.Truncated(fn))
	}
	return short(h)
}

func TestTraceAndReportDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale digests in -short mode")
	}
	for _, in := range digestInputs(t) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			if got := traceDigest(parseDigestModule(t, in.src), in.model); got != in.trace {
				t.Errorf("trace digest = %s, want %s", got, in.trace)
			}
			for _, workers := range []int{1, 8} {
				rep, err := core.AnalyzeCtx(context.Background(), parseDigestModule(t, in.src),
					core.Config{Model: in.model.String(), Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				body, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(body)
				if got := hex.EncodeToString(sum[:8]); got != in.json {
					t.Errorf("workers=%d: report digest = %s, want %s", workers, got, in.json)
				}
			}
		})
	}
}
