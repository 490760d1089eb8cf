package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloadSpec names one workload and how to build it.
type workloadSpec struct {
	name string
	// clients is the number of closed-loop client goroutines.
	clients int
	// tailPct is the percentile op_tail_ms reports, chosen so that every
	// full-length run has at least ten samples beyond it.
	tailPct float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// setup builds the workload's inputs and state.  tr is nil for an
	// untraced instance.
	setup func(o options, tr *tracer) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// round runs one whole round over the fixed seeded input set,
	// reporting every op to rec.
	round(rec *roundRec) error
	// layers returns the per-layer metrics of a traced instance, after
	// its measured phase.  It may run extra probes of layers the timed
	// ops do not call one by one; those are not timed into the phase.
	layers(plain, traced *phase) (map[string]float64, error)
	close()
}

var workloads = []workloadSpec{staticAppsSpec, runtimeKVSpec, crashCorpusSpec, serveMixedSpec}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// ---------------------------------------------------------------------------
// Per-op recording

// roundRec collects one round's ops, one clientRec per client goroutine
// so clients never share a recorder.
type roundRec struct {
	clients []*clientRec
	// elapsed, when set by the instance, is the round's timed part; it
	// excludes per-round scaffolding such as starting a fresh server.
	// cpu is then the process CPU time over the same timed part.
	elapsed, cpu time.Duration
}

func newRoundRec(clients int) *roundRec {
	r := &roundRec{}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &clientRec{})
	}
	return r
}

// client returns client c's recorder.
func (r *roundRec) client(c int) *clientRec { return r.clients[c] }

// clientRec is one client's share of a round.
type clientRec struct {
	lats      []int64 // per-op latency, ns
	verdict   uint64  // order-sensitive hash of the op verdicts
	attempted int64
	failed    int64
	known     int64 // ops whose verdict is the documented known defect
	bad       []string
}

// op records one op: its latency, a verdict string that must be the
// same in every round and in traced and untraced runs, and, when the
// verdict disagrees with the clean answer, why.  A known failure is the
// documented known defect, which is part of the expected answer: it is
// counted apart (known_defect_ops in the run's metadata), not as failed,
// and does not make the run incorrect.  Only unexpected failures count
// as failed, so a run's failed count does not move with how many rounds
// fit in its time.
func (c *clientRec) op(lat time.Duration, verdict string, failure string, known bool) {
	c.lats = append(c.lats, int64(lat))
	c.sideOp(verdict, failure, known)
}

// sideOp records an op whose latency stays out of the workload's
// latency percentiles.  It counts everywhere else: attempted, failed,
// verdicts, and the round's time.
func (c *clientRec) sideOp(verdict string, failure string, known bool) {
	// FNV-1a over the previous hash and the verdict, inline so that
	// recording an op allocates nothing.
	h := c.verdict ^ 14695981039346656037
	for i := 0; i < len(verdict); i++ {
		h = (h ^ uint64(verdict[i])) * 1099511628211
	}
	c.verdict = h
	c.attempted++
	if failure == "" {
		return
	}
	if known {
		c.known++
		failure = "known defect: " + failure
	} else {
		c.failed++
	}
	if len(c.bad) < 8 {
		c.bad = append(c.bad, failure)
	}
}

// ---------------------------------------------------------------------------
// Phases

// phase is one measured stretch of whole rounds.
type phase struct {
	rounds    []roundStat
	allocB    float64
	allocObjs float64
	heap      []heapSample // live heap after each GC cycle
	gcCPU     float64      // seconds of GC CPU over the rounds
	totalCPU  float64      // seconds of all Go CPU over the rounds
	lats      []int64
	attempted int64
	failed    int64
	known     int64    // known-defect ops, not counted in failed
	unknown   []string // unexpected failures (first few)
	knownEx   []string // known-defect failures (first few)
	verdicts  map[uint64]int
	// warmBad marks an unexpected failure in the untimed warm-up round.
	warmBad bool
}

// roundStat is one timed round.
type roundStat struct {
	start, end time.Time
	dur        time.Duration // timed part (roundRec.elapsed when set)
	cpu        time.Duration
	ops        int64
}

// opsPerS is the median over whole rounds of each round's throughput:
// a round that a host-level stall (CPU steal by other tenants of a
// shared machine) slows down moves it less than it moves the total.
func (p *phase) opsPerS() float64 {
	var xs []float64
	for _, r := range p.rounds {
		xs = append(xs, float64(r.ops)/r.dur.Seconds())
	}
	return median(xs)
}

// cpuPerOp is the median over rounds of each round's process CPU per op.
func (p *phase) cpuPerOp() time.Duration {
	var xs []float64
	for _, r := range p.rounds {
		xs = append(xs, float64(r.cpu)/float64(r.ops))
	}
	return time.Duration(median(xs))
}

// peakHeap is the median over rounds of each round's largest live heap
// after a GC, over the rounds during which a GC finished; with none, it
// is the largest sample (the collection before the first round).
func (p *phase) peakHeap() float64 {
	var xs []float64
	for _, r := range p.rounds {
		peak, seen := 0.0, false
		for _, h := range p.heap {
			if !h.at.Before(r.start) && h.at.Before(r.end) {
				seen = true
				if h.live > peak {
					peak = h.live
				}
			}
		}
		if seen {
			xs = append(xs, peak)
		}
	}
	if len(xs) > 0 {
		return median(xs)
	}
	largest := 0.0
	for _, h := range p.heap {
		if h.live > largest {
			largest = h.live
		}
	}
	return largest
}

// absorb folds one round into the phase.
func (p *phase) absorb(r *roundRec, st roundStat) {
	var v uint64
	for i, c := range r.clients {
		st.ops += c.attempted
		p.attempted += c.attempted
		p.failed += c.failed
		p.known += c.known
		p.lats = append(p.lats, c.lats...)
		v = v*1099511628211 + c.verdict + uint64(i)
		for _, s := range c.bad {
			if strings.HasPrefix(s, "known defect: ") {
				if len(p.knownEx) < 8 && !slices.Contains(p.knownEx, s) {
					p.knownEx = append(p.knownEx, s)
				}
			} else if len(p.unknown) < 8 {
				p.unknown = append(p.unknown, s)
			}
		}
	}
	p.rounds = append(p.rounds, st)
	p.verdicts[v]++
}

// correct reports whether no op failed unexpectedly and every round
// returned the same verdicts.
func (p *phase) correct() bool {
	return p.failed == 0 && len(p.verdicts) == 1 && !p.warmBad
}

// verdict returns the phase's single round verdict (0 if rounds
// disagreed).
func (p *phase) verdict() uint64 {
	if len(p.verdicts) != 1 {
		return 0
	}
	for v := range p.verdicts {
		return v
	}
	return 0
}

// measure runs one warm-up round, collects the heap, then runs whole
// rounds until seconds have passed.  Timed metrics count whole rounds
// only, so every run sees the same input mix.
func measure(inst instance, clients int, seconds float64) (*phase, error) {
	// Warm-up: lazy initialisation and first-touch page faults are paid
	// here, not by the first timed op.  Its verdicts are still checked.
	ph := &phase{verdicts: map[uint64]int{}}
	warm := newRoundRec(clients)
	if err := inst.round(warm); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	warmPh := &phase{verdicts: map[uint64]int{}}
	warmPh.absorb(warm, roundStat{})

	runtime.GC()
	hw := startHeapWatch()
	s0 := readRuntime()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ph.rounds) == 0 || time.Now().Before(deadline) {
		rec := newRoundRec(clients)
		c0 := processCPU()
		t0 := time.Now()
		if err := inst.round(rec); err != nil {
			return nil, err
		}
		st := roundStat{start: t0, end: time.Now(), cpu: processCPU() - c0}
		st.dur = st.end.Sub(t0)
		if rec.elapsed > 0 {
			st.dur, st.cpu = rec.elapsed, rec.cpu
		}
		ph.absorb(rec, st)
	}
	s1 := readRuntime()
	ph.heap = hw.stop()
	ph.allocB = s1.allocB - s0.allocB
	ph.allocObjs = s1.allocObjs - s0.allocObjs
	ph.gcCPU = s1.gcCPU - s0.gcCPU
	ph.totalCPU = s1.totalCPU - s0.totalCPU
	// The warm-up's verdicts must match the timed rounds'.
	if w := warmPh.verdict(); len(ph.verdicts) == 1 && ph.verdicts[w] == 0 {
		ph.verdicts[w]++
	}
	if warmPh.failed > 0 {
		ph.warmBad = true
		ph.unknown = append(ph.unknown, warmPh.unknown...)
	}
	return ph, nil
}

// setupRepeated runs set-up reps times from a collected heap, keeping
// the last instance; it returns each set-up's duration.
func setupRepeated(spec workloadSpec, o options, tr *tracer, reps int) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		in, err := spec.setup(o, tr)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		inst = in
		times = append(times, d.Seconds())
	}
	return inst, times, nil
}

// ---------------------------------------------------------------------------
// Runs

func runPlain(spec workloadSpec, o options) (*result, map[string]any, error) {
	reps := spec.setupReps
	if o.short {
		reps = 2
	}
	inst, setups, err := setupRepeated(spec, o, nil, reps)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	ph, err := measure(inst, spec.clients, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	ms, meta := endToEnd(spec, ph, setups)
	res := &result{Correct: ph.correct(), Attempted: ph.attempted, Failed: ph.failed, Metrics: ms}
	addFailureMeta(meta, ph)
	return res, meta, nil
}

func runTraced(spec workloadSpec, o options, out io.Writer) (*result, map[string]any, error) {
	half := o.seconds / 2
	inst, _, err := setupRepeated(spec, o, nil, 1)
	if err != nil {
		return nil, nil, err
	}
	plain, err := measure(inst, spec.clients, half)
	inst.close()
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	tinst, _, err := setupRepeated(spec, o, tr, 1)
	if err != nil {
		return nil, nil, err
	}
	defer tinst.close()
	traced, err := measure(tinst, spec.clients, half)
	if err != nil {
		return nil, nil, err
	}
	lm, err := tinst.layers(plain, traced)
	if err != nil {
		return nil, nil, err
	}

	ms := map[string]metric{}
	for _, m := range perLayerMetrics {
		ms[m.name] = metric{Value: 0, Unit: m.unit}
	}
	for k, v := range lm {
		m, ok := ms[k]
		if !ok {
			return nil, nil, fmt.Errorf("workload reported undeclared per-layer metric %q", k)
		}
		m.Value = v
		ms[k] = m
	}
	if traced.totalCPU > 0 {
		ms["go.gc_cpu_frac"] = metric{Value: traced.gcCPU / traced.totalCPU, Unit: "fraction"}
	}
	overhead := 100 * (plain.opsPerS()/traced.opsPerS() - 1)
	ms["bench.trace_overhead_pct"] = metric{Value: overhead, Unit: "%"}
	fmt.Fprintf(out, "trace overhead: untraced %.4g ops/s (p50 %.4g ms), traced %.4g ops/s (p50 %.4g ms): %+.1f%%\n",
		plain.opsPerS(), pct(plain.lats, 50)/1e6, traced.opsPerS(), pct(traced.lats, 50)/1e6, overhead)

	same := plain.verdict() != 0 && plain.verdict() == traced.verdict()
	if !same {
		fmt.Fprintf(out, "verdict mismatch: untraced rounds %v, traced rounds %v\n", plain.verdicts, traced.verdicts)
	}
	res := &result{
		Correct:   plain.correct() && traced.correct() && same,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   ms,
	}
	meta := map[string]any{
		"spans":           tr.count(),
		"untraced_rounds": len(plain.rounds),
		"traced_rounds":   len(traced.rounds),
		"verdicts_equal":  same,
	}
	addFailureMeta(meta, plain)
	if len(traced.unknown) > 0 {
		meta["traced_unexpected_failures"] = traced.unknown
	}
	return res, meta, nil
}

func addFailureMeta(meta map[string]any, ph *phase) {
	if len(ph.knownEx) > 0 {
		meta["known_defect"] = ph.knownEx
		meta["known_defect_ops"] = ph.known
	}
	if len(ph.unknown) > 0 {
		meta["unexpected_failures"] = ph.unknown
	}
	if len(ph.verdicts) != 1 {
		meta["round_verdicts_differ"] = len(ph.verdicts)
	}
}

// endToEnd computes every end-to-end metric from a phase.
func endToEnd(spec workloadSpec, ph *phase, setups []float64) (map[string]metric, map[string]any) {
	n := float64(ph.attempted)
	lats := append([]int64(nil), ph.lats...)
	slices.Sort(lats)
	vals := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       ph.opsPerS(),
		"op_p50_ms":       sortedPct(lats, 50) / 1e6,
		"op_tail_ms":      sortedPct(lats, spec.tailPct) / 1e6,
		"cpu_ms_per_op":   float64(ph.cpuPerOp()) / 1e6,
		"alloc_mb_per_op": ph.allocB / 1e6 / n,
		"allocs_per_op":   ph.allocObjs / n,
		"peak_heap_mb":    ph.peakHeap() / 1e6,
	}
	ms := map[string]metric{}
	for _, m := range endToEndMetrics {
		ms[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	beyond := len(ph.lats) - rankIndex(len(ph.lats), spec.tailPct) - 1
	meta := map[string]any{
		"tail_pct":    spec.tailPct,
		"tail_beyond": beyond,
		"rounds":      len(ph.rounds),
		"samples": map[string]int64{
			"setup_s":   int64(len(setups)),
			"ops_per_s": int64(len(ph.rounds)),
			"op_ms":     int64(len(ph.lats)),
			"per_op":    ph.attempted,
			"heap_gcs":  int64(len(ph.heap)),
		},
	}
	pcts := map[string]float64{}
	for _, q := range []float64{90, 95, 99} {
		pcts[fmt.Sprintf("p%g_ms", q)] = sortedPct(lats, q) / 1e6
	}
	meta["latency_pcts"] = pcts
	if beyond < 10 {
		meta["tail_warning"] = fmt.Sprintf("only %d samples beyond p%g", beyond, spec.tailPct)
	}
	return ms, meta
}

// ---------------------------------------------------------------------------
// Statistics

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// pct returns the nearest-rank percentile p of xs (sorting a copy).
func pct(xs []int64, p float64) float64 {
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return sortedPct(s, p)
}

// sortedPct is pct over samples already in ascending order.
func sortedPct(s []int64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[rankIndex(len(s), p)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
