package trace_test

import (
	"reflect"
	"runtime"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/dsa"
	"deepmc/internal/trace"
)

// TestCollectionAllocBound bounds the bytes one serial trace collection
// of the Memcached-scale Table 9 module allocates.  Collection is
// deterministic, so the figure is stable from run to run; a return to
// copying every continuation prefix and every callee splice (about
// 540 MB here) fails it.
func TestCollectionAllocBound(t *testing.T) {
	const boundMB = 110
	if testing.Short() {
		t.Skip("app-scale collection in -short mode")
	}
	var spec core.AppSpec
	for _, s := range core.AppSpecs() {
		if s.Name == "Memcached" {
			spec = s
		}
	}
	m := core.GenerateApp(spec)
	a := dsa.Analyze(m, dsa.DefaultOptions())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := trace.NewCollector(a, trace.DefaultOptions())
	for _, fn := range m.FuncNames() {
		c.FunctionTraces(fn)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("Memcached-scale collection allocated %.1f MB", mb)
	if mb > boundMB {
		t.Errorf("collection allocated %.1f MB, bound %d MB", mb, boundMB)
	}
}

// TestEntryCompactAndPointerFree pins the stored entry's shape: at most
// 32 bytes and no pointers, so trace slices are not scanned by the
// garbage collector.
func TestEntryCompactAndPointerFree(t *testing.T) {
	typ := reflect.TypeOf(trace.Entry{})
	if typ.Size() > 32 {
		t.Errorf("trace.Entry is %d bytes, want at most 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("trace.Entry.%s has kind %s, want a plain integer", f.Name, f.Type.Kind())
		}
	}
}
