package trace_test

import (
	"reflect"
	"testing"

	"deepmc/internal/core"
	"deepmc/internal/dsa"
	"deepmc/internal/trace"
)

// TestForksMarkSharedPrefixes checks the fork positions the collector
// records: ascending and within the trace, every fork ID held by at
// least two traces of the function, and the traces holding one ID
// identical up to its position.  It runs on the Memcached-scale module
// at a fifth of its size.
func TestForksMarkSharedPrefixes(t *testing.T) {
	spec := core.AppSpecs()[0]
	spec.Funcs /= 5
	m := core.GenerateApp(spec)
	c := trace.NewCollector(dsa.Analyze(m, dsa.DefaultOptions()), trace.DefaultOptions())
	total := 0
	for _, fn := range m.FuncNames() {
		ts := c.FunctionTraces(fn)
		holders := map[uint32][]int{}
		at := map[uint32]uint32{}
		for ti, tr := range ts {
			prev := uint32(0)
			for _, f := range tr.Forks {
				if f.At <= prev || int(f.At) > len(tr.Entries) {
					t.Fatalf("%s trace %d: fork at %d after %d, trace length %d", fn, ti, f.At, prev, len(tr.Entries))
				}
				prev = f.At
				if a, ok := at[f.ID]; ok && a != f.At {
					t.Fatalf("%s: fork %d ends at %d and at %d", fn, f.ID, a, f.At)
				}
				at[f.ID] = f.At
				holders[f.ID] = append(holders[f.ID], ti)
			}
		}
		for id, tis := range holders {
			if len(tis) < 2 {
				t.Errorf("%s: fork %d is held by trace %d alone", fn, id, tis[0])
			}
			first := ts[tis[0]].Entries[:at[id]]
			for _, ti := range tis[1:] {
				if !reflect.DeepEqual(ts[ti].Entries[:at[id]], first) {
					t.Errorf("%s: traces %d and %d differ before fork %d at %d", fn, tis[0], ti, id, at[id])
				}
			}
		}
		total += len(holders)
	}
	if total == 0 {
		t.Error("no function's traces share a prefix")
	}
}
