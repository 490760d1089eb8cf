package trace

import (
	"testing"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
)

func collect(t *testing.T, src, fn string) []*Trace {
	t.Helper()
	m := ir.MustParse(src)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	a := dsa.Analyze(m, dsa.DefaultOptions())
	c := NewCollector(a, DefaultOptions())
	return c.FunctionTraces(fn)
}

func kinds(tr *Trace) []Kind {
	out := make([]Kind, len(tr.Entries))
	for i, e := range tr.Entries {
		out[i] = e.Kind
	}
	return out
}

func TestStraightLineTrace(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
	b: int
}

func f() {
	file "f.c"
	%p = palloc obj
	store %p.a, 1   @10
	flush %p.a      @11
	fence           @12
	ret
}
`
	ts := collect(t, src, "f")
	if len(ts) != 1 {
		t.Fatalf("got %d traces, want 1", len(ts))
	}
	got := kinds(ts[0])
	want := []Kind{KWrite, KFlush, KFence}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	e := ts[0].Op(0)
	if e.Line != 10 || e.File != "f.c" {
		t.Errorf("entry location = %s:%d", e.File, e.Line)
	}
	if e.Cell.Field != "a" {
		t.Errorf("write field = %q, want a", e.Cell.Field)
	}
}

func TestVolatileOpsDropped(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
}

func f() {
	%v = alloc obj
	%p = palloc obj
	store %v.a, 1
	store %p.a, 2
	flush %v.a
	fence
	ret
}
`
	ts := collect(t, src, "f")
	if len(ts) != 1 {
		t.Fatalf("got %d traces", len(ts))
	}
	got := kinds(ts[0])
	// Only the persistent store and the fence survive.
	want := []Kind{KWrite, KFence}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
}

func TestBranchingPaths(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
	b: int
}

func f(c) {
	%p = palloc obj
	condbr %c, yes, no
yes:
	store %p.a, 1
	br out
no:
	store %p.b, 2
	br out
out:
	fence
	ret
}
`
	ts := collect(t, src, "f")
	if len(ts) != 2 {
		t.Fatalf("got %d traces, want 2", len(ts))
	}
	fields := map[string]bool{}
	for _, tr := range ts {
		if len(tr.Entries) != 2 {
			t.Fatalf("trace entries = %s", tr)
		}
		fields[tr.Op(0).Cell.Field] = true
	}
	if !fields["a"] || !fields["b"] {
		t.Errorf("branch fields covered = %v", fields)
	}
}

func TestLoopBounded(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
}

func f(n) {
	%p = palloc obj
	%i = const 0
	br head
head:
	%c = lt %i, %n
	condbr %c, body, exit
body:
	store %p.a, %i
	%i = add %i, 1
	br head
exit:
	fence
	ret
}
`
	m := ir.MustParse(src)
	a := dsa.Analyze(m, dsa.DefaultOptions())
	opts := DefaultOptions()
	opts.LoopIterations = 3
	opts.MaxPaths = 1000
	c := NewCollector(a, opts)
	ts := c.FunctionTraces("f")
	if len(ts) == 0 {
		t.Fatal("no traces collected")
	}
	// No trace may contain more than 3 loop-body writes.
	for _, tr := range ts {
		writes := 0
		for _, e := range tr.Entries {
			if e.Kind == KWrite {
				writes++
			}
		}
		if writes > 3 {
			t.Errorf("trace has %d writes, loop cap 3 violated", writes)
		}
	}
}

func TestInterproceduralMerge(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
	b: int
}

func persist_a(p: *obj) {
	file "lib.c"
	flush %p.a  @50
	fence       @51
	ret
}

func f() {
	file "app.c"
	%p = palloc obj
	store %p.a, 1       @5
	call persist_a(%p)  @6
	ret
}
`
	ts := collect(t, src, "f")
	if len(ts) != 1 {
		t.Fatalf("got %d traces, want 1", len(ts))
	}
	got := kinds(ts[0])
	want := []Kind{KWrite, KFlush, KFence}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	w, fl := ts[0].Op(0), ts[0].Op(1)
	// Callee location preserved.
	if fl.File != "lib.c" || fl.Line != 50 {
		t.Errorf("flush location = %s:%d, want lib.c:50", fl.File, fl.Line)
	}
	// Callee cell translated into caller context: flush targets the same
	// object+field the caller wrote.
	if !dsa.MustAlias(w.Cell, fl.Cell) {
		t.Errorf("write cell %v and flush cell %v must alias after translation", w.Cell, fl.Cell)
	}
}

func TestNestedCallTranslation(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
}

func inner(p: *obj) {
	file "inner.c"
	flush %p.a @1
	ret
}

func mid(p: *obj) {
	file "mid.c"
	call inner(%p) @2
	ret
}

func top() {
	file "top.c"
	%p = palloc obj
	store %p.a, 1 @3
	call mid(%p)  @4
	fence         @5
	ret
}
`
	ts := collect(t, src, "top")
	if len(ts) != 1 {
		t.Fatalf("got %d traces", len(ts))
	}
	var w, fl *Op
	for i := range ts[0].Entries {
		e := ts[0].Op(i)
		switch e.Kind {
		case KWrite:
			w = &e
		case KFlush:
			fl = &e
		}
	}
	if w == nil || fl == nil {
		t.Fatalf("trace = %v", ts[0])
	}
	if !dsa.MustAlias(w.Cell, fl.Cell) {
		t.Errorf("two-level translation broken: %v vs %v", w.Cell, fl.Cell)
	}
}

func TestMaxPathsCap(t *testing.T) {
	// 2^6 = 64 paths; cap at 8.
	src := `
module m

type obj struct {
	a: int
}

func f(c) {
	%p = palloc obj
	br b0
`
	for i := 0; i < 6; i++ {
		src += blockPair(i)
	}
	src += `b6:
	fence
	ret
}
`
	m := ir.MustParse(src)
	a := dsa.Analyze(m, dsa.DefaultOptions())
	opts := DefaultOptions()
	opts.MaxPaths = 8
	c := NewCollector(a, opts)
	ts := c.FunctionTraces("f")
	if len(ts) > 8 {
		t.Errorf("got %d traces, cap 8", len(ts))
	}
	if len(ts) == 0 {
		t.Error("no traces")
	}
}

func blockPair(i int) string {
	return "b" + itoa(i) + ":\n\tcondbr %c, l" + itoa(i) + ", r" + itoa(i) + "\n" +
		"l" + itoa(i) + ":\n\tstore %p.a, 1\n\tbr b" + itoa(i+1) + "\n" +
		"r" + itoa(i) + ":\n\tbr b" + itoa(i+1) + "\n"
}

func itoa(i int) string {
	return string(rune('0' + i))
}

func TestTracePrioritization(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
}

func f(c) {
	%p = palloc obj
	condbr %c, cold, hot
cold:
	ret
hot:
	store %p.a, 1
	flush %p.a
	fence
	ret
}
`
	ts := collect(t, src, "f")
	if len(ts) != 2 {
		t.Fatalf("got %d traces", len(ts))
	}
	if ts[0].PersistentOps() < ts[1].PersistentOps() {
		t.Error("traces not ordered by persistent-op count")
	}
}

func TestEpochAndStrandMarkers(t *testing.T) {
	src := `
module m

type obj struct {
	a: int
}

func f() {
	%p = palloc obj
	epochbegin
	store %p.a, 1
	epochend
	fence
	strandbegin 1
	store %p.a, 2
	strandend 1
	ret
}
`
	ts := collect(t, src, "f")
	got := kinds(ts[0])
	want := []Kind{KEpochBegin, KWrite, KEpochEnd, KFence, KStrandBegin, KWrite, KStrandEnd}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ts[0].Op(4).Strand != 1 {
		t.Errorf("strand id = %d", ts[0].Op(4).Strand)
	}
}
