// Package checker implements DeepMC's static checker (paper §4.3): it
// applies the persistency-model checking rules of Table 4 and the
// performance rules of Table 5 to the traces collected by package trace.
//
// The user declares which memory persistency model the program intends to
// implement (the paper's -strict / -epoch / -strand compiler flag); the
// checker selects the corresponding rule set.  Performance rules apply
// under every model, as §3.3 describes.
package checker

import (
	"fmt"
	"sort"

	"deepmc/internal/dsa"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
	"deepmc/internal/report"
	"deepmc/internal/trace"
)

// Model is the declared memory persistency model of an NVM program.
type Model uint8

const (
	// Strict persistency: every persistent store is made durable in
	// program order (write → flush → fence).
	Strict Model = iota
	// Epoch persistency: stores within an epoch may persist in any order;
	// epochs are ordered by persist barriers at their boundaries.
	Epoch
	// Strand persistency: like epoch, but independent strands may persist
	// concurrently; strands must not carry data dependences.
	Strand
)

// String returns the compiler-flag spelling of the model.
func (m Model) String() string {
	switch m {
	case Strict:
		return "strict"
	case Epoch:
		return "epoch"
	case Strand:
		return "strand"
	}
	return "unknown"
}

// ParseModel converts a -strict/-epoch/-strand flag value.
func ParseModel(s string) (Model, error) {
	switch s {
	case "strict":
		return Strict, nil
	case "epoch":
		return Epoch, nil
	case "strand":
		return Strand, nil
	}
	return Strict, fmt.Errorf("checker: unknown persistency model %q (want strict, epoch or strand)", s)
}

// Options configure a check run.
type Options struct {
	Model Model
	// Trace configures path exploration.
	Trace trace.Options
	// DSA configures the points-to analysis.
	DSA dsa.Options
	// AllFunctions also checks non-root functions standalone.  The
	// default (false) checks root traces only: callee code is covered
	// inline with caller context, as the paper's interprocedural merge
	// does, which avoids flagging callees whose callers persist for them.
	AllFunctions bool
	// Disabled suppresses emission of the given rules (disabled passes).
	// Gating happens at the warn sites only — the scanner's state
	// machine is shared across rules, so disabling a pass removes
	// exactly its diagnostics without perturbing any other rule.
	Disabled map[report.Rule]bool
	// Contract is the hardware persistency contract the rules derive
	// from.  The zero value is x86 (clwb/sfence), preserving every
	// pre-contract caller.  Under CXL with a persistence domain the
	// static scanner has no address layout, so a non-empty domain is
	// read as covering the whole persistent heap: writes are durable at
	// store time (suppressing unflushed-write), flushes become
	// flush-in-persist-domain perf findings, and the durability
	// obligation re-keys to the global persist barrier
	// (missing-global-barrier).  An empty-domain CXL contract scans
	// exactly like x86.
	Contract pmcontract.Contract
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions(m Model) Options {
	return Options{Model: m, Trace: trace.DefaultOptions(), DSA: dsa.DefaultOptions()}
}

// Checker runs the static rules over one module.
type Checker struct {
	Opts      Options
	Analysis  *dsa.Analysis
	Collector *trace.Collector
}

// New prepares a checker: runs DSA and sets up trace collection.
func New(m *ir.Module, opts Options) *Checker {
	a := dsa.Analyze(m, opts.DSA)
	return &Checker{
		Opts:      opts,
		Analysis:  a,
		Collector: trace.NewCollector(a, opts.Trace),
	}
}

// Check is the convenience entry point: analyze m under the given model
// with default options.
func Check(m *ir.Module, model Model) *report.Report {
	return New(m, DefaultOptions(model)).CheckModule()
}

// CheckModule applies the rule set to every root function's merged traces
// (plus every function standalone if AllFunctions), deduplicating
// warnings by (rule, file, line).
func (c *Checker) CheckModule() *report.Report {
	rep := report.New()
	for _, f := range c.targetFunctions() {
		for _, t := range c.Collector.FunctionTraces(f.Name) {
			c.CheckTrace(t, rep)
		}
	}
	rep.Sort()
	return rep
}

// targetFunctions returns the functions whose traces the rule set is
// applied to, in module declaration order.
func (c *Checker) targetFunctions() []*ir.Function {
	if !c.Opts.AllFunctions {
		return c.Analysis.CG.Roots()
	}
	var fns []*ir.Function
	for _, name := range c.Analysis.Module.FuncNames() {
		fns = append(fns, c.Analysis.Module.Funcs[name])
	}
	return fns
}

// CheckTrace applies all enabled rules to one trace, adding findings to
// rep.
func (c *Checker) CheckTrace(t *trace.Trace, rep *report.Report) {
	s := &scanner{
		checker:    c,
		rep:        rep,
		trace:      t,
		model:      c.Opts.Model,
		autoDomain: c.Opts.Contract.HasDomain(),
	}
	s.run()
}

// ---------------------------------------------------------------------------
// scanner: the per-trace rule state machine

// wrec tracks one persistent write awaiting durability.
type wrec struct {
	idx      int
	e        trace.Op
	covered  bool // a flush covered it, or its object was undo-logged
	domain   bool // durable at store time (CXL persistence domain)
	epochSeq int  // id of the enclosing epoch, -1 outside epochs
	txDepth  int  // transaction nesting depth at the write
}

// txFrame tracks one open transaction.
type txFrame struct {
	beginEntry    trace.Op
	logged        []dsa.Cell
	writes        int
	flushesPerObj map[*dsa.Node][]trace.Op
	writtenObjs   map[*dsa.Node]bool
	fenceLast     bool // the most recent persistency op inside was a fence
}

type scanner struct {
	checker *Checker
	rep     *report.Report
	trace   *trace.Trace
	model   Model

	pending  []wrec
	txStack  []*txFrame
	epochSeq int // running epoch counter; -1 before any epoch
	inEpoch  bool
	// barrier bookkeeping
	fenceSinceFlush bool
	unfencedFlushes []trace.Op
	// region bookkeeping for the semantic-mismatch rule: persistent
	// objects written by the previous and current tx/epoch region.
	prevRegion map[*dsa.Node]trace.Op
	curRegion  map[*dsa.Node]trace.Op
	inRegion   bool
	// epoch-barrier bookkeeping
	lastEpochEnd       *trace.Op
	fenceSinceEpochEnd bool
	// strand bookkeeping (static WAW check)
	strandWrites map[int64][]trace.Op
	curStrand    int64
	// CXL-contract bookkeeping.  autoDomain: stores are durable at
	// store time (whole-heap persistence domain).  unbarriered tracks
	// domain writes not yet committed by a global persist barrier —
	// a device failure discards them (DMC-X02).
	autoDomain  bool
	unbarriered []trace.Op
	// cells is distinctPendingCells' scratch buffer, reused per fence.
	cells []dsa.Cell
	// Incremental per-object write/flush summaries keep every per-entry
	// check O(1)-ish, so long interprocedurally-merged traces stay
	// linear to scan.
	writtenFields map[*dsa.Node]map[string]bool // "" key = whole object
	flushHist     map[*dsa.Node][]flushRec
}

// flushRec is one seen flush; dirty marks an overlapping write since.
type flushRec struct {
	field string
	e     trace.Op
	dirty bool
}

func (s *scanner) run() {
	s.epochSeq = -1
	s.curStrand = -1
	s.fenceSinceFlush = true
	s.fenceSinceEpochEnd = true
	s.strandWrites = make(map[int64][]trace.Op)
	s.writtenFields = make(map[*dsa.Node]map[string]bool)
	s.flushHist = make(map[*dsa.Node][]flushRec)
	for i := range s.trace.Entries {
		e := s.trace.Op(i)
		switch e.Kind {
		case trace.KWrite:
			s.onWrite(i, e)
		case trace.KFlush:
			s.onFlush(i, e)
		case trace.KFence:
			s.onFence(e)
		case trace.KTxBegin:
			s.onTxBegin(e)
		case trace.KTxEnd:
			s.onTxEnd(e)
		case trace.KTxAdd:
			s.onTxAdd(e)
		case trace.KEpochBegin:
			s.onEpochBegin(e)
		case trace.KEpochEnd:
			s.onEpochEnd(e)
		case trace.KStrandBegin:
			s.curStrand = e.Strand
		case trace.KStrandEnd:
			s.curStrand = -1
		}
	}
	s.atTraceEnd()
}

func (s *scanner) warn(rule report.Rule, e trace.Op, format string, args ...any) {
	if s.checker.Opts.Disabled[rule] {
		return
	}
	s.rep.Add(report.Warning{
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Func:    e.Func,
		File:    e.File,
		Line:    e.Line,
	})
}

func (s *scanner) tx() *txFrame {
	if len(s.txStack) == 0 {
		return nil
	}
	return s.txStack[len(s.txStack)-1]
}

// loggedCovers reports whether any active transaction logged an object
// covering the cell (an undo-logged object is persisted at commit).
func (s *scanner) loggedCovers(c dsa.Cell) bool {
	for _, f := range s.txStack {
		for _, lc := range f.logged {
			if dsa.SameObject(lc, c) && dsa.FieldCovers(lc.Field, c.Field) {
				return true
			}
		}
	}
	return false
}

func (s *scanner) onWrite(i int, e trace.Op) {
	obj := e.Cell.Obj.Find()
	wf := s.writtenFields[obj]
	if wf == nil {
		wf = make(map[string]bool)
		s.writtenFields[obj] = wf
	}
	wf[e.Cell.Field] = true
	recs := s.flushHist[obj]
	for ri := range recs {
		if !recs[ri].dirty && dsa.FieldsOverlap(recs[ri].field, e.Cell.Field) {
			recs[ri].dirty = true
		}
	}
	s.pending = append(s.pending, wrec{
		idx:      i,
		e:        e,
		covered:  s.autoDomain || s.loggedCovers(e.Cell),
		domain:   s.autoDomain,
		epochSeq: s.currentEpoch(),
		txDepth:  len(s.txStack),
	})
	if s.autoDomain {
		// Durable at store time, but buffered device-side until the next
		// global persist barrier commits it: a device failure before then
		// discards it (DMC-X02, checked at barrier/commit/path end).
		s.unbarriered = append(s.unbarriered, e)
	}
	for _, f := range s.txStack {
		f.writes++
		f.writtenObjs[e.Cell.Obj] = true
		f.fenceLast = false
	}
	if s.inRegion {
		if _, ok := s.curRegion[e.Cell.Obj]; !ok {
			s.curRegion[e.Cell.Obj] = e
		}
	}
	if s.curStrand >= 0 {
		s.strandWrites[s.curStrand] = append(s.strandWrites[s.curStrand], e)
	}
}

func (s *scanner) currentEpoch() int {
	if s.inEpoch {
		return s.epochSeq
	}
	return -1
}

func (s *scanner) onFlush(i int, e trace.Op) {
	if s.autoDomain {
		// Inside a device persistence domain the store was durable the
		// moment it executed: the clwb writes back nothing and the flush
		// semantics the remaining bookkeeping models do not exist here.
		s.warn(report.RuleFlushInPersistDomain, e,
			"flush of %s targets the device persistence domain: the store was already durable at store time",
			cellDesc(e.Cell))
		return
	}
	// Cover pending writes.
	anyCovered := false
	hadOverlapWrite := false
	for pi := range s.pending {
		w := &s.pending[pi]
		if dsa.SameObject(w.e.Cell, e.Cell) && dsa.FieldCovers(e.Cell.Field, w.e.Cell.Field) {
			if !w.covered {
				w.covered = true
				anyCovered = true
			}
			hadOverlapWrite = true
		}
	}
	// Performance rule: writing back unmodified data.  A flush with no
	// overlapping write anywhere earlier in the trace is useless; a
	// whole-object flush whose preceding writes touch only some fields
	// writes back unmodified fields.
	obj := e.Cell.Obj.Find()
	overlapEver := hadOverlapWrite || s.anyWriteOverlaps(obj, e.Cell.Field)
	if !overlapEver {
		s.warn(report.RuleFlushUnmodified, e,
			"flush of %s which no preceding write modified", cellDesc(e.Cell))
	} else if e.Cell.Field == "" {
		if unmod := s.unmodifiedFields(obj); len(unmod) > 0 {
			s.warn(report.RuleFlushUnmodified, e,
				"flushing entire object %s though only some fields were modified (unmodified: %v)",
				cellDesc(e.Cell), unmod)
		}
	}
	// Performance rule: redundant write-backs — an earlier flush already
	// covered this storage and nothing overlapping was written since
	// (its record is still clean).
	for _, pf := range s.flushHist[obj] {
		if pf.dirty || !dsa.FieldsOverlap(pf.field, e.Cell.Field) {
			continue
		}
		s.warn(report.RuleRedundantFlush, e,
			"redundant flush of %s: already written back at %s:%d with no modification in between",
			cellDesc(e.Cell), pf.e.File, pf.e.Line)
		break
	}
	s.flushHist[obj] = append(s.flushHist[obj], flushRec{field: e.Cell.Field, e: e})
	// Transaction-scope persist accounting.
	if f := s.tx(); f != nil {
		obj := e.Cell.Obj
		f.flushesPerObj[obj] = append(f.flushesPerObj[obj], e)
		if len(f.flushesPerObj[obj]) == 2 {
			s.warn(report.RuleMultiplePersist, e,
				"object %s persisted multiple times within one transaction", cellDesc(e.Cell))
		}
		f.fenceLast = false
	}
	s.fenceSinceFlush = false
	s.unfencedFlushes = append(s.unfencedFlushes, e)
	_ = anyCovered
}

// anyWriteOverlaps consults the per-object write summary for an earlier
// overlapping write.
func (s *scanner) anyWriteOverlaps(obj *dsa.Node, field string) bool {
	for wf := range s.writtenFields[obj] {
		if dsa.FieldsOverlap(wf, field) {
			return true
		}
	}
	return false
}

// unmodifiedFields lists top-level fields of the flushed object's struct
// type that no earlier write in the trace modified.  Unknown types yield
// nil (no warning — conservative against false positives).
func (s *scanner) unmodifiedFields(obj *dsa.Node) []string {
	if obj.TypeName == "" {
		return nil
	}
	t := s.checker.Analysis.Module.Types[obj.TypeName]
	if t == nil || len(t.Fields) < 2 {
		return nil
	}
	written := make(map[string]bool)
	for wf := range s.writtenFields[obj] {
		if wf == "" {
			return nil // whole-object write: everything modified
		}
		written[topField(wf)] = true
	}
	var unmod []string
	for _, f := range t.Fields {
		if !written[f.Name] {
			unmod = append(unmod, f.Name)
		}
	}
	if len(unmod) == len(t.Fields) {
		// Nothing written at all: the flush-of-unmodified warning already
		// covers it.
		return nil
	}
	return unmod
}

func topField(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return path
}

func (s *scanner) onFence(e trace.Op) {
	switch s.model {
	case Strict:
		// Every pending write must have been flushed (or logged) by the
		// time its barrier executes.
		for _, w := range s.pending {
			if !w.covered && !s.loggedCovers(w.e.Cell) {
				s.warn(report.RuleUnflushedWrite, w.e,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(w.e.Cell))
			}
		}
		// Strict persistency: one write per barrier (transactions batch
		// by design, so only check outside them).
		if len(s.txStack) == 0 {
			if n := s.distinctPendingCells(); n > 1 {
				s.warn(report.RuleMultipleWritesAtOnce, e,
					"%d writes made durable by a single persist barrier (strict persistency orders each store)", n)
			}
		}
		s.pending = s.pending[:0]
	case Epoch, Strand:
		// One barrier persisting the writes of several epochs means the
		// epoch boundaries were not individually enforced (the PMFS
		// "multiple writes made durable at once" bug).  Covered writes of
		// closed epochs stay pending until a fence retires them, so the
		// fence sees exactly which epochs it makes durable.
		epochs := make(map[int]bool)
		for _, w := range s.pending {
			if w.domain {
				// Domain writes were durable at store time; the barrier
				// commits them but does not batch their persistence.
				continue
			}
			if w.epochSeq >= 0 && (w.covered || s.loggedCovers(w.e.Cell)) {
				epochs[w.epochSeq] = true
			}
		}
		if len(epochs) > 1 {
			s.warn(report.RuleMultipleWritesAtOnce, e,
				"one persist barrier made writes of %d epochs durable at once", len(epochs))
		}
		// The fence retires everything except writes of the still-open
		// epoch (their coverage window extends to its epochend); writes
		// outside any epoch behave strictly.
		kept := s.pending[:0]
		for _, w := range s.pending {
			if s.inEpoch && w.epochSeq == s.epochSeq {
				kept = append(kept, w)
				continue
			}
			if !w.covered && !s.loggedCovers(w.e.Cell) && w.epochSeq < 0 {
				s.warn(report.RuleUnflushedWrite, w.e,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(w.e.Cell))
			}
		}
		s.pending = kept
	}
	s.fenceSinceFlush = true
	s.unfencedFlushes = s.unfencedFlushes[:0]
	s.fenceSinceEpochEnd = true
	// The global persist barrier commits every buffered domain write.
	s.unbarriered = nil
	if f := s.tx(); f != nil {
		f.fenceLast = true
	}
}

// distinctPendingCells counts pending covered writes with pairwise-
// distinct cells.  Uncovered writes are excluded: they already produce an
// unflushed-write warning, and the barrier does not make them durable.
func (s *scanner) distinctPendingCells() int {
	cells := s.cells[:0]
	for _, w := range s.pending {
		if w.domain {
			// Durable at store time: the barrier does not persist it.
			continue
		}
		if !w.covered && !s.loggedCovers(w.e.Cell) {
			continue
		}
		dup := false
		for _, c := range cells {
			if dsa.MustAlias(c, w.e.Cell) {
				dup = true
				break
			}
		}
		if !dup {
			cells = append(cells, w.e.Cell)
		}
	}
	s.cells = cells
	return len(cells)
}

func (s *scanner) onTxBegin(e trace.Op) {
	// Strict persistency requires flushes to be fenced before the next
	// transaction begins (Figure 3 of the paper).
	if s.model == Strict && len(s.unfencedFlushes) > 0 {
		fl := s.unfencedFlushes[len(s.unfencedFlushes)-1]
		s.warn(report.RuleMissingBarrier, fl,
			"flush of %s has no persist barrier before the next transaction begins", cellDesc(fl.Cell))
		s.unfencedFlushes = s.unfencedFlushes[:0]
	}
	s.txStack = append(s.txStack, &txFrame{
		beginEntry:    e,
		flushesPerObj: make(map[*dsa.Node][]trace.Op),
		writtenObjs:   make(map[*dsa.Node]bool),
	})
	if len(s.txStack) == 1 {
		s.beginRegion()
	}
}

func (s *scanner) onTxEnd(e trace.Op) {
	f := s.tx()
	if f == nil {
		return // unbalanced; verifier-level concern
	}
	s.txStack = s.txStack[:len(s.txStack)-1]
	// Performance rule: a durable transaction without persistent writes
	// pays commit-time persistence for nothing.
	if f.writes == 0 {
		s.warn(report.RuleDurableTxNoWrite, f.beginEntry,
			"durable transaction contains no persistent writes")
	}
	// Epoch rule: a nested transaction must end with a persist barrier
	// before control returns to the outer transaction (Figure 4).
	if (s.model == Epoch || s.model == Strand) && len(s.txStack) >= 1 && !f.fenceLast {
		s.warn(report.RuleMissingBarrierNestedTx, e,
			"nested transaction ends without a persist barrier")
	}
	// Commit persists logged objects: cover the logged writes and fence.
	for pi := range s.pending {
		w := &s.pending[pi]
		if w.covered {
			continue
		}
		for _, lc := range f.logged {
			if dsa.SameObject(lc, w.e.Cell) && dsa.FieldCovers(lc.Field, w.e.Cell.Field) {
				w.covered = true
				break
			}
		}
	}
	// At commit of the outermost transaction, judge the writes made
	// inside it: unlogged, unflushed writes are not durable (Figure 2).
	// Commit includes a persist barrier, so buffered domain writes are
	// committed too (same reading as fenceSinceFlush below).
	if len(s.txStack) == 0 {
		s.unbarriered = nil
		kept := s.pending[:0]
		for _, w := range s.pending {
			if w.txDepth > 0 {
				if !w.covered {
					s.warn(report.RuleUnflushedWrite, w.e,
						"write to %s inside a transaction is neither undo-logged nor flushed", cellDesc(w.e.Cell))
				}
				continue
			}
			kept = append(kept, w)
		}
		s.pending = kept
		s.endRegion()
	}
	s.unfencedFlushes = s.unfencedFlushes[:0]
	s.fenceSinceFlush = true
}

func (s *scanner) onTxAdd(e trace.Op) {
	f := s.tx()
	if f == nil {
		return
	}
	f.logged = append(f.logged, e.Cell)
	// Logging covers pending writes to the object made before the TX_ADD
	// as well (conservative: commit writes back the whole object).
	for pi := range s.pending {
		w := &s.pending[pi]
		if !w.covered && dsa.SameObject(w.e.Cell, e.Cell) && dsa.FieldCovers(e.Cell.Field, w.e.Cell.Field) {
			w.covered = true
		}
	}
}

func (s *scanner) onEpochBegin(e trace.Op) {
	// Consecutive epochs need a barrier between them (Table 4).  When the
	// previous epoch left covered writes pending, the defect surfaces at
	// the eventual fence as "multiple writes made durable at once"; the
	// pure boundary violation is reported only when there is nothing
	// pending for that fence to expose.
	if (s.model == Epoch || s.model == Strand) && s.lastEpochEnd != nil && !s.fenceSinceEpochEnd {
		prevPending := false
		for _, w := range s.pending {
			if w.epochSeq >= 0 {
				prevPending = true
				break
			}
		}
		if !prevPending {
			s.warn(report.RuleMissingBarrierBetweenEpochs, *s.lastEpochEnd,
				"epoch ends without a persist barrier before the next epoch begins")
		}
	}
	s.epochSeq++
	s.inEpoch = true
	if len(s.txStack) == 0 {
		s.beginRegion()
	}
}

func (s *scanner) onEpochEnd(e trace.Op) {
	// Judge the epoch's writes: everything stored in the epoch must have
	// been flushed (subset coverage) by its end.  Covered writes remain
	// pending until a fence retires them, so the fence can detect
	// multi-epoch batches.
	kept := s.pending[:0]
	for _, w := range s.pending {
		if w.epochSeq == s.epochSeq && !w.covered && !s.loggedCovers(w.e.Cell) {
			s.warn(report.RuleUnflushedWrite, w.e,
				"write to %s not flushed by the end of its epoch", cellDesc(w.e.Cell))
			continue
		}
		kept = append(kept, w)
	}
	s.pending = kept
	s.inEpoch = false
	s.lastEpochEnd = &trace.Op{}
	*s.lastEpochEnd = e
	s.fenceSinceEpochEnd = false
	if len(s.txStack) == 0 {
		s.endRegion()
	}
}

// beginRegion opens a semantic region (transaction or epoch) for the
// semantic-mismatch rule.
func (s *scanner) beginRegion() {
	s.curRegion = make(map[*dsa.Node]trace.Op)
	s.inRegion = true
}

// endRegion closes the current region and compares it with the previous
// one: consecutive regions writing to the same persistent object indicate
// that semantically-atomic updates were split across persistence units
// (the hashmap bug of Figure 1).
func (s *scanner) endRegion() {
	if !s.inRegion {
		return
	}
	// Iterate the region's objects in a deterministic order (first-write
	// location, then node id): the emission order decides which message
	// survives deduplication.
	objs := make([]*dsa.Node, 0, len(s.curRegion))
	for obj := range s.curRegion {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool {
		a, b := s.curRegion[objs[i]], s.curRegion[objs[j]]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return objs[i].ID() < objs[j].ID()
	})
	for _, obj := range objs {
		e := s.curRegion[obj]
		if prev, ok := s.prevRegion[obj]; ok {
			s.warn(report.RuleSemanticMismatch, e,
				"consecutive transactions/epochs both write object %s (first written at %s:%d); the updates are not made durable atomically",
				nodeDesc(obj), prev.File, prev.Line)
		}
	}
	s.prevRegion = s.curRegion
	s.curRegion = nil
	s.inRegion = false
}

func (s *scanner) atTraceEnd() {
	// Unflushed writes pending at the end of the program path.
	for _, w := range s.pending {
		if !w.covered && !s.loggedCovers(w.e.Cell) {
			s.warn(report.RuleUnflushedWrite, w.e,
				"write to %s never covered by a flush or undo log on this path", cellDesc(w.e.Cell))
		}
	}
	// Strict: flushes with no barrier at all before the path ends.
	if s.model == Strict && len(s.unfencedFlushes) > 0 {
		fl := s.unfencedFlushes[len(s.unfencedFlushes)-1]
		s.warn(report.RuleMissingBarrier, fl,
			"flush of %s is never followed by a persist barrier on this path", cellDesc(fl.Cell))
	}
	// CXL: domain writes never committed by a global persist barrier are
	// rolled back by a device failure — the contract's re-keying of the
	// missing-barrier obligation (DMC-X02).
	for _, e := range s.unbarriered {
		s.warn(report.RuleMissingGlobalBarrier, e,
			"persistence-domain write to %s is never committed by a global persist barrier on this path (a device failure discards it)",
			cellDesc(e.Cell))
	}
	// Static strand rule: concurrent strands with overlapping writes
	// carry WAW dependences (Table 4's strand rule).
	if s.model == Strand {
		s.checkStrandOverlaps()
	}
}

func (s *scanner) checkStrandOverlaps() {
	ids := make([]int64, 0, len(s.strandWrites))
	for id := range s.strandWrites {
		ids = append(ids, id)
	}
	// Deterministic order: strand ids come from a map, so sort before
	// pairing — the emission order decides which message survives
	// deduplication.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := ids[i], ids[j]
			if a > b {
				a, b = b, a
			}
			for _, wa := range s.strandWrites[a] {
				for _, wb := range s.strandWrites[b] {
					if dsa.MayAlias(wa.Cell, wb.Cell) {
						s.warn(report.RuleStrandDependence, wb,
							"strands %d and %d both write %s: strands must be data-independent",
							a, b, cellDesc(wb.Cell))
					}
				}
			}
		}
	}
}

// cellDesc renders an abstract location for warning messages.
func cellDesc(c dsa.Cell) string {
	if c.Obj == nil {
		return "<unknown>"
	}
	return nodeDesc(c.Obj) + fieldSuffix(c.Field)
}

func nodeDesc(n *dsa.Node) string {
	r := n.Find()
	if r.TypeName != "" {
		return r.TypeName
	}
	return r.String()
}

func fieldSuffix(f string) string {
	if f == "" {
		return ""
	}
	return "." + f
}
