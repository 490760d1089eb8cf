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
	"cmp"
	"fmt"
	"slices"
	"strings"

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
		c.checkFunction(f.Name, rep)
	}
	rep.Sort()
	return rep
}

// checkFunction applies the rule set to one function's traces, scanning
// them as a prefix tree: one scanner snapshots its state where a prefix
// shared with other traces ends (trace.Fork), and every later trace
// resumes from its deepest snapshotted fork and scans only its own
// suffix.  Skipping a shared prefix cannot change the report: the state
// after it depends only on its entries and the function's table, and
// the trace that first scanned it already added each warning it raises,
// with the same message, so report.Add would have dropped them again.
func (c *Checker) checkFunction(fn string, rep *report.Report) {
	s := c.newScanner(rep)
	s.snaps = make(map[uint32]*state)
	for _, t := range c.Collector.FunctionTraces(fn) {
		s.scan(t)
	}
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
// rep: the function scan of checkFunction, started with no snapshots.
func (c *Checker) CheckTrace(t *trace.Trace, rep *report.Report) {
	c.newScanner(rep).scan(t)
}

// ---------------------------------------------------------------------------
// scanner: the per-trace rule state machine

// layout is the scanner's dense view of one trace table, built once per
// table: every cell resolved to a small object number, so the rule state
// is a handful of slices instead of maps keyed by DSA nodes and field
// paths.  Table cells are normalized (dsa.Cell.Norm), so a cell's object
// is its own representative.
type layout struct {
	tab   *trace.Table
	cells []dsa.Cell
	// obj numbers each cell's object (-1 for the empty cell); node maps
	// the numbers back and objCells lists each object's cells.
	obj      []int32
	node     []*dsa.Node
	objCells [][]uint32
	// typ is each object's struct type when it has at least two fields
	// (the ones the unmodified-fields rule reasons about), else nil.
	// Such an object owns the bits from typeBase on in the state's top
	// bitset: the first for a whole-object write, then one per field,
	// a repeated field name sharing its first field's bit.  topBit is
	// the bit a write to the cell sets, -1 if none.
	typ      []*ir.Type
	typeBase []int32
	topBit   []int32
	// noFlushes is a zero count per object, appended for each opened
	// transaction.
	noFlushes []uint8
	// init is the state every unshared trace starts from.
	init state
}

func newLayout(tab *trace.Table, types map[string]*ir.Type) *layout {
	cells := tab.Cells()
	l := &layout{
		tab:    tab,
		cells:  cells,
		obj:    make([]int32, len(cells)),
		topBit: make([]int32, len(cells)),
	}
	objs := make(map[*dsa.Node]int32)
	bits := int32(0)
	for i, c := range cells {
		l.obj[i], l.topBit[i] = -1, -1
		if c.Obj == nil {
			continue
		}
		n := c.Obj.Find()
		o, ok := objs[n]
		if !ok {
			o = int32(len(l.node))
			objs[n] = o
			l.node = append(l.node, n)
			l.objCells = append(l.objCells, nil)
			t := types[n.TypeName]
			if n.TypeName == "" || t == nil || len(t.Fields) < 2 {
				t = nil
			}
			l.typ = append(l.typ, t)
			l.typeBase = append(l.typeBase, bits)
			if t != nil {
				bits += 1 + int32(len(t.Fields))
			}
		}
		l.obj[i] = o
		l.objCells[o] = append(l.objCells[o], uint32(i))
		if t := l.typ[o]; t != nil {
			if c.Field == "" {
				l.topBit[i] = l.typeBase[o]
			} else if k := fieldIndex(t, topField(c.Field)); k >= 0 {
				l.topBit[i] = l.typeBase[o] + 1 + int32(k)
			}
		}
	}
	nObj := len(l.node)
	l.noFlushes = make([]uint8, nObj)
	l.init = state{
		epochSeq:           -1,
		unfenced:           -1,
		lastEpochEnd:       -1,
		fenceSinceEpochEnd: true,
		curStrand:          -1,
		region:             make([]int32, nObj),
		prevRegion:         make([]int32, nObj),
		written:            make([]bool, len(cells)),
		top:                make([]uint64, (bits+63)/64),
		cleanFlush:         make([]int32, nObj),
	}
	return l
}

// fieldIndex returns the index of t's first field named name, or -1.
func fieldIndex(t *ir.Type, name string) int {
	for k, f := range t.Fields {
		if f.Name == name {
			return k
		}
	}
	return -1
}

// state is everything the rule state machine knows after a trace
// prefix.  It depends only on the prefix's entries and the table, so a
// snapshot taken where a shared prefix ends holds for every trace that
// shares it.  Entries are referred to by position, which is the same in
// every trace sharing them; objects and fields by their layout numbers.
type state struct {
	pending []wrec
	// tx is the open-transaction stack, outermost first.  logged holds
	// the cells its frames undo-logged, each frame's from its loggedFrom
	// on; txFlushes holds, per frame, a flush count per object that
	// saturates at 2.
	tx        []txFrame
	logged    []uint32
	txFlushes []uint8
	epochSeq  int32 // running epoch counter; -1 before any epoch
	inEpoch   bool
	// unfenced is the latest flush no barrier has followed yet, -1 if none.
	unfenced int32
	// Region bookkeeping for the semantic-mismatch rule: per object, the
	// position+1 of its first write in the current and the previous
	// tx/epoch region (0 if none), and the objects each region wrote.
	region, prevRegion   []int32
	regionObjs, prevObjs []int32
	inRegion             bool
	// Epoch-barrier bookkeeping: the last epoch end (-1 if none).
	lastEpochEnd       int32
	fenceSinceEpochEnd bool
	// Strand bookkeeping (static WAW check).
	strandWrites []strandWrite
	curStrand    int64
	// unbarriered tracks CXL domain writes not yet committed by a global
	// persist barrier — a device failure discards them (DMC-X02).
	unbarriered []int32
	// Incremental per-object write/flush summaries keep every per-entry
	// check O(1)-ish, so long interprocedurally-merged traces stay
	// linear to scan: written marks the cells written, top the written
	// top-level fields (layout.typeBase); flushes logs every flush, and
	// cleanFlush heads each object's chain of the flushes no overlapping
	// write has followed yet, newest first (position+1 in flushes, 0 if
	// none).
	written    []bool
	top        []uint64
	flushes    []flushRec
	cleanFlush []int32
}

// copyFrom makes st a copy of o, reusing st's buffers.
func (st *state) copyFrom(o *state) {
	*st = state{
		pending:            append(st.pending[:0], o.pending...),
		tx:                 append(st.tx[:0], o.tx...),
		logged:             append(st.logged[:0], o.logged...),
		txFlushes:          append(st.txFlushes[:0], o.txFlushes...),
		epochSeq:           o.epochSeq,
		inEpoch:            o.inEpoch,
		unfenced:           o.unfenced,
		region:             append(st.region[:0], o.region...),
		prevRegion:         append(st.prevRegion[:0], o.prevRegion...),
		regionObjs:         append(st.regionObjs[:0], o.regionObjs...),
		prevObjs:           append(st.prevObjs[:0], o.prevObjs...),
		inRegion:           o.inRegion,
		lastEpochEnd:       o.lastEpochEnd,
		fenceSinceEpochEnd: o.fenceSinceEpochEnd,
		strandWrites:       append(st.strandWrites[:0], o.strandWrites...),
		curStrand:          o.curStrand,
		unbarriered:        append(st.unbarriered[:0], o.unbarriered...),
		written:            append(st.written[:0], o.written...),
		top:                append(st.top[:0], o.top...),
		flushes:            append(st.flushes[:0], o.flushes...),
		cleanFlush:         append(st.cleanFlush[:0], o.cleanFlush...),
	}
}

// wrec tracks one persistent write awaiting durability.
type wrec struct {
	entry    int32
	cell     uint32
	epochSeq int32 // id of the enclosing epoch, -1 outside epochs
	txDepth  int32 // transaction nesting depth at the write
	covered  bool  // a flush covered it, or its object was undo-logged
	domain   bool  // durable at store time (CXL persistence domain)
}

// txFrame tracks one open transaction.
type txFrame struct {
	begin      int32 // its TX_BEGIN entry
	loggedFrom int32 // its first cell in state.logged
	writes     int32
	fenceLast  bool // the most recent persistency op inside was a fence
}

// flushRec is one seen flush.
type flushRec struct {
	entry int32
	cell  uint32
	prev  int32 // the object's next older clean flush, as in cleanFlush
}

// strandWrite is one write inside a strand.
type strandWrite struct {
	strand int64
	entry  int32
}

type scanner struct {
	checker *Checker
	rep     *report.Report
	model   Model
	// autoDomain: stores are durable at store time (CXL whole-heap
	// persistence domain).
	autoDomain bool

	lay   *layout
	trace *trace.Trace
	st    state
	// snaps holds the state at each scanned shared-prefix end, by
	// trace.Fork ID; nil when scanning one trace alone.
	snaps map[uint32]*state
	// cells and epochs are scratch buffers, reused per fence.
	cells  []uint32
	epochs []int32
}

func (c *Checker) newScanner(rep *report.Report) *scanner {
	return &scanner{
		checker:    c,
		rep:        rep,
		model:      c.Opts.Model,
		autoDomain: c.Opts.Contract.HasDomain(),
	}
}

// scan applies the rules to t.  It starts from the deepest of t's forks
// already snapshotted (or from the empty prefix) and snapshots the
// state at every later fork it passes.
func (s *scanner) scan(t *trace.Trace) {
	if s.lay == nil || s.lay.tab != t.Table() {
		s.lay = newLayout(t.Table(), s.checker.Analysis.Module.Types)
		clear(s.snaps)
	}
	s.trace = t
	forks := t.Forks
	// Resume from the deepest fork already snapshotted, if any; forks
	// from next on are still to be snapshotted.
	from, next := 0, len(forks)
	for next > 0 && s.snaps[forks[next-1].ID] == nil {
		next--
	}
	if next > 0 {
		s.st.copyFrom(s.snaps[forks[next-1].ID])
		from = int(forks[next-1].At)
	} else {
		s.st.copyFrom(&s.lay.init)
	}
	if s.snaps == nil {
		next = len(forks) // scanning one trace alone: no snapshots
	}
	for i := from; i < len(t.Entries); i++ {
		for next < len(forks) && int(forks[next].At) == i {
			s.snapshot(forks[next].ID)
			next++
		}
		s.step(int32(i))
	}
	for ; next < len(forks); next++ {
		s.snapshot(forks[next].ID)
	}
	s.atTraceEnd()
}

func (s *scanner) snapshot(id uint32) {
	snap := new(state)
	snap.copyFrom(&s.st)
	s.snaps[id] = snap
}

func (s *scanner) step(i int32) {
	e := &s.trace.Entries[i]
	switch e.Kind {
	case trace.KWrite:
		s.onWrite(i, e.CellIndex())
	case trace.KFlush:
		s.onFlush(i, e.CellIndex())
	case trace.KFence:
		s.onFence(i)
	case trace.KTxBegin:
		s.onTxBegin(i)
	case trace.KTxEnd:
		s.onTxEnd(i)
	case trace.KTxAdd:
		s.onTxAdd(e.CellIndex())
	case trace.KEpochBegin:
		s.onEpochBegin()
	case trace.KEpochEnd:
		s.onEpochEnd(i)
	case trace.KStrandBegin:
		s.st.curStrand = e.Strand()
	case trace.KStrandEnd:
		s.st.curStrand = -1
	}
}

func (s *scanner) warn(rule report.Rule, i int32, format string, args ...any) {
	if s.checker.Opts.Disabled[rule] {
		return
	}
	fn, file := s.trace.Site(int(i))
	s.rep.Add(report.Warning{
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Func:    fn,
		File:    file,
		Line:    s.trace.Entries[i].Line,
	})
}

// cellAt returns the abstract location of the i'th entry.
func (s *scanner) cellAt(i int32) dsa.Cell {
	return s.lay.cells[s.trace.Entries[i].CellIndex()]
}

// covers reports whether storage at cell a (a flush, or an undo-logged
// object) fully covers storage at cell b.
func (s *scanner) covers(a, b uint32) bool {
	l := s.lay
	return l.obj[a] >= 0 && l.obj[a] == l.obj[b] && dsa.FieldCovers(l.cells[a].Field, l.cells[b].Field)
}

// loggedCovers reports whether any active transaction logged an object
// covering the cell (an undo-logged object is persisted at commit).
func (s *scanner) loggedCovers(c uint32) bool {
	for _, lc := range s.st.logged {
		if s.covers(lc, c) {
			return true
		}
	}
	return false
}

func (s *scanner) onWrite(i int32, c uint32) {
	l, st := s.lay, &s.st
	obj := l.obj[c]
	st.written[c] = true
	if b := l.topBit[c]; b >= 0 {
		st.top[b/64] |= 1 << (b % 64)
	}
	// The write dirties the object's overlapping clean flushes.
	path := l.cells[c].Field
	for link := &st.cleanFlush[obj]; *link != 0; {
		if f := &st.flushes[*link-1]; dsa.FieldsOverlap(l.cells[f.cell].Field, path) {
			*link = f.prev
		} else {
			link = &f.prev
		}
	}
	st.pending = append(st.pending, wrec{
		entry:    i,
		cell:     c,
		covered:  s.autoDomain || s.loggedCovers(c),
		domain:   s.autoDomain,
		epochSeq: s.currentEpoch(),
		txDepth:  int32(len(st.tx)),
	})
	if s.autoDomain {
		// Durable at store time, but buffered device-side until the next
		// global persist barrier commits it: a device failure before then
		// discards it (DMC-X02, checked at barrier/commit/path end).
		st.unbarriered = append(st.unbarriered, i)
	}
	for k := range st.tx {
		st.tx[k].writes++
		st.tx[k].fenceLast = false
	}
	if st.inRegion && st.region[obj] == 0 {
		st.region[obj] = i + 1
		st.regionObjs = append(st.regionObjs, obj)
	}
	if st.curStrand >= 0 {
		st.strandWrites = append(st.strandWrites, strandWrite{st.curStrand, i})
	}
}

func (s *scanner) currentEpoch() int32 {
	if s.st.inEpoch {
		return s.st.epochSeq
	}
	return -1
}

func (s *scanner) onFlush(i int32, c uint32) {
	l, st := s.lay, &s.st
	cell := l.cells[c]
	if s.autoDomain {
		// Inside a device persistence domain the store was durable the
		// moment it executed: the clwb writes back nothing and the flush
		// semantics the remaining bookkeeping models do not exist here.
		s.warn(report.RuleFlushInPersistDomain, i,
			"flush of %s targets the device persistence domain: the store was already durable at store time",
			cellDesc(cell))
		return
	}
	// Cover pending writes.
	hadOverlapWrite := false
	for pi := range st.pending {
		if w := &st.pending[pi]; s.covers(c, w.cell) {
			w.covered = true
			hadOverlapWrite = true
		}
	}
	// Performance rule: writing back unmodified data.  A flush with no
	// overlapping write anywhere earlier in the trace is useless; a
	// whole-object flush whose preceding writes touch only some fields
	// writes back unmodified fields.
	obj := l.obj[c]
	if !hadOverlapWrite && !s.anyWriteOverlaps(obj, cell.Field) {
		s.warn(report.RuleFlushUnmodified, i,
			"flush of %s which no preceding write modified", cellDesc(cell))
	} else if cell.Field == "" {
		if unmod := s.unmodifiedFields(obj); len(unmod) > 0 {
			s.warn(report.RuleFlushUnmodified, i,
				"flushing entire object %s though only some fields were modified (unmodified: %v)",
				cellDesc(cell), unmod)
		}
	}
	// Performance rule: redundant write-backs — an earlier flush already
	// covered this storage and nothing overlapping was written since
	// (its record is still clean).  The chain runs newest first; the
	// warning cites the oldest such flush.
	first := int32(0)
	for r := st.cleanFlush[obj]; r != 0; r = st.flushes[r-1].prev {
		if dsa.FieldsOverlap(l.cells[st.flushes[r-1].cell].Field, cell.Field) {
			first = r
		}
	}
	if first != 0 {
		pf := st.flushes[first-1].entry
		_, file := s.trace.Site(int(pf))
		s.warn(report.RuleRedundantFlush, i,
			"redundant flush of %s: already written back at %s:%d with no modification in between",
			cellDesc(cell), file, s.trace.Entries[pf].Line)
	}
	st.flushes = append(st.flushes, flushRec{entry: i, cell: c, prev: st.cleanFlush[obj]})
	st.cleanFlush[obj] = int32(len(st.flushes))
	// Transaction-scope persist accounting.
	if n := len(st.tx); n > 0 {
		if k := (n-1)*len(l.node) + int(obj); st.txFlushes[k] < 2 {
			st.txFlushes[k]++
			if st.txFlushes[k] == 2 {
				s.warn(report.RuleMultiplePersist, i,
					"object %s persisted multiple times within one transaction", cellDesc(cell))
			}
		}
		st.tx[n-1].fenceLast = false
	}
	st.unfenced = i
}

// anyWriteOverlaps consults the per-object write summary for an earlier
// overlapping write.
func (s *scanner) anyWriteOverlaps(obj int32, field string) bool {
	for _, c := range s.lay.objCells[obj] {
		if s.st.written[c] && dsa.FieldsOverlap(s.lay.cells[c].Field, field) {
			return true
		}
	}
	return false
}

// unmodifiedFields lists top-level fields of the flushed object's struct
// type that no earlier write in the trace modified.  Unknown types yield
// nil (no warning — conservative against false positives).
func (s *scanner) unmodifiedFields(obj int32) []string {
	t := s.lay.typ[obj]
	if t == nil {
		return nil
	}
	base := s.lay.typeBase[obj]
	if s.topWritten(base) {
		return nil // whole-object write: everything modified
	}
	var unmod []string
	for _, f := range t.Fields {
		if !s.topWritten(base + 1 + int32(fieldIndex(t, f.Name))) {
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

func (s *scanner) topWritten(b int32) bool { return s.st.top[b/64]&(1<<(b%64)) != 0 }

func topField(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return path
}

func (s *scanner) onFence(i int32) {
	st := &s.st
	switch s.model {
	case Strict:
		// Every pending write must have been flushed (or logged) by the
		// time its barrier executes.
		for _, w := range st.pending {
			if !w.covered && !s.loggedCovers(w.cell) {
				s.warn(report.RuleUnflushedWrite, w.entry,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(s.lay.cells[w.cell]))
			}
		}
		// Strict persistency: one write per barrier (transactions batch
		// by design, so only check outside them).
		if len(st.tx) == 0 {
			if n := s.distinctPendingCells(); n > 1 {
				s.warn(report.RuleMultipleWritesAtOnce, i,
					"%d writes made durable by a single persist barrier (strict persistency orders each store)", n)
			}
		}
		st.pending = st.pending[:0]
	case Epoch, Strand:
		// One barrier persisting the writes of several epochs means the
		// epoch boundaries were not individually enforced (the PMFS
		// "multiple writes made durable at once" bug).  Covered writes of
		// closed epochs stay pending until a fence retires them, so the
		// fence sees exactly which epochs it makes durable.
		epochs := s.epochs[:0]
		for _, w := range st.pending {
			if w.domain {
				// Domain writes were durable at store time; the barrier
				// commits them but does not batch their persistence.
				continue
			}
			if w.epochSeq >= 0 && (w.covered || s.loggedCovers(w.cell)) && !slices.Contains(epochs, w.epochSeq) {
				epochs = append(epochs, w.epochSeq)
			}
		}
		s.epochs = epochs
		if len(epochs) > 1 {
			s.warn(report.RuleMultipleWritesAtOnce, i,
				"one persist barrier made writes of %d epochs durable at once", len(epochs))
		}
		// The fence retires everything except writes of the still-open
		// epoch (their coverage window extends to its epochend); writes
		// outside any epoch behave strictly.
		kept := st.pending[:0]
		for _, w := range st.pending {
			if st.inEpoch && w.epochSeq == st.epochSeq {
				kept = append(kept, w)
				continue
			}
			if !w.covered && !s.loggedCovers(w.cell) && w.epochSeq < 0 {
				s.warn(report.RuleUnflushedWrite, w.entry,
					"write to %s reaches a persist barrier without a covering flush", cellDesc(s.lay.cells[w.cell]))
			}
		}
		st.pending = kept
	}
	st.unfenced = -1
	st.fenceSinceEpochEnd = true
	// The global persist barrier commits every buffered domain write.
	st.unbarriered = st.unbarriered[:0]
	if n := len(st.tx); n > 0 {
		st.tx[n-1].fenceLast = true
	}
}

// distinctPendingCells counts pending covered writes with pairwise-
// distinct cells.  Uncovered writes are excluded: they already produce an
// unflushed-write warning, and the barrier does not make them durable.
func (s *scanner) distinctPendingCells() int {
	cells := s.cells[:0]
	for _, w := range s.st.pending {
		if w.domain {
			// Durable at store time: the barrier does not persist it.
			continue
		}
		if !w.covered && !s.loggedCovers(w.cell) {
			continue
		}
		dup := false
		for _, c := range cells {
			if dsa.MustAlias(s.lay.cells[c], s.lay.cells[w.cell]) {
				dup = true
				break
			}
		}
		if !dup {
			cells = append(cells, w.cell)
		}
	}
	s.cells = cells
	return len(cells)
}

func (s *scanner) onTxBegin(i int32) {
	st := &s.st
	// Strict persistency requires flushes to be fenced before the next
	// transaction begins (Figure 3 of the paper).
	if s.model == Strict && st.unfenced >= 0 {
		s.warn(report.RuleMissingBarrier, st.unfenced,
			"flush of %s has no persist barrier before the next transaction begins", cellDesc(s.cellAt(st.unfenced)))
		st.unfenced = -1
	}
	st.tx = append(st.tx, txFrame{begin: i, loggedFrom: int32(len(st.logged))})
	st.txFlushes = append(st.txFlushes, s.lay.noFlushes...)
	if len(st.tx) == 1 {
		s.beginRegion()
	}
}

func (s *scanner) onTxEnd(i int32) {
	st := &s.st
	n := len(st.tx)
	if n == 0 {
		return // unbalanced; verifier-level concern
	}
	f := st.tx[n-1]
	logged := st.logged[f.loggedFrom:]
	st.tx = st.tx[:n-1]
	st.txFlushes = st.txFlushes[:(n-1)*len(s.lay.node)]
	// Performance rule: a durable transaction without persistent writes
	// pays commit-time persistence for nothing.
	if f.writes == 0 {
		s.warn(report.RuleDurableTxNoWrite, f.begin,
			"durable transaction contains no persistent writes")
	}
	// Epoch rule: a nested transaction must end with a persist barrier
	// before control returns to the outer transaction (Figure 4).
	if (s.model == Epoch || s.model == Strand) && len(st.tx) >= 1 && !f.fenceLast {
		s.warn(report.RuleMissingBarrierNestedTx, i,
			"nested transaction ends without a persist barrier")
	}
	// Commit persists logged objects: cover the logged writes and fence.
	for pi := range st.pending {
		w := &st.pending[pi]
		if w.covered {
			continue
		}
		for _, lc := range logged {
			if s.covers(lc, w.cell) {
				w.covered = true
				break
			}
		}
	}
	st.logged = st.logged[:f.loggedFrom]
	// At commit of the outermost transaction, judge the writes made
	// inside it: unlogged, unflushed writes are not durable (Figure 2).
	// Commit includes a persist barrier, so buffered domain writes are
	// committed too.
	if len(st.tx) == 0 {
		st.unbarriered = st.unbarriered[:0]
		kept := st.pending[:0]
		for _, w := range st.pending {
			if w.txDepth > 0 {
				if !w.covered {
					s.warn(report.RuleUnflushedWrite, w.entry,
						"write to %s inside a transaction is neither undo-logged nor flushed", cellDesc(s.lay.cells[w.cell]))
				}
				continue
			}
			kept = append(kept, w)
		}
		st.pending = kept
		s.endRegion()
	}
	st.unfenced = -1
}

func (s *scanner) onTxAdd(c uint32) {
	st := &s.st
	if len(st.tx) == 0 {
		return
	}
	st.logged = append(st.logged, c)
	// Logging covers pending writes to the object made before the TX_ADD
	// as well (conservative: commit writes back the whole object).
	for pi := range st.pending {
		if w := &st.pending[pi]; !w.covered && s.covers(c, w.cell) {
			w.covered = true
		}
	}
}

func (s *scanner) onEpochBegin() {
	st := &s.st
	// Consecutive epochs need a barrier between them (Table 4).  When the
	// previous epoch left covered writes pending, the defect surfaces at
	// the eventual fence as "multiple writes made durable at once"; the
	// pure boundary violation is reported only when there is nothing
	// pending for that fence to expose.
	if (s.model == Epoch || s.model == Strand) && st.lastEpochEnd >= 0 && !st.fenceSinceEpochEnd {
		prevPending := false
		for _, w := range st.pending {
			if w.epochSeq >= 0 {
				prevPending = true
				break
			}
		}
		if !prevPending {
			s.warn(report.RuleMissingBarrierBetweenEpochs, st.lastEpochEnd,
				"epoch ends without a persist barrier before the next epoch begins")
		}
	}
	st.epochSeq++
	st.inEpoch = true
	if len(st.tx) == 0 {
		s.beginRegion()
	}
}

func (s *scanner) onEpochEnd(i int32) {
	st := &s.st
	// Judge the epoch's writes: everything stored in the epoch must have
	// been flushed (subset coverage) by its end.  Covered writes remain
	// pending until a fence retires them, so the fence can detect
	// multi-epoch batches.
	kept := st.pending[:0]
	for _, w := range st.pending {
		if w.epochSeq == st.epochSeq && !w.covered && !s.loggedCovers(w.cell) {
			s.warn(report.RuleUnflushedWrite, w.entry,
				"write to %s not flushed by the end of its epoch", cellDesc(s.lay.cells[w.cell]))
			continue
		}
		kept = append(kept, w)
	}
	st.pending = kept
	st.inEpoch = false
	st.lastEpochEnd = i
	st.fenceSinceEpochEnd = false
	if len(st.tx) == 0 {
		s.endRegion()
	}
}

// beginRegion opens a semantic region (transaction or epoch) for the
// semantic-mismatch rule.
func (s *scanner) beginRegion() {
	st := &s.st
	for _, o := range st.regionObjs {
		st.region[o] = 0
	}
	st.regionObjs = st.regionObjs[:0]
	st.inRegion = true
}

// endRegion closes the current region and compares it with the previous
// one: consecutive regions writing to the same persistent object indicate
// that semantically-atomic updates were split across persistence units
// (the hashmap bug of Figure 1).
func (s *scanner) endRegion() {
	st := &s.st
	if !st.inRegion {
		return
	}
	// Visit the region's objects in a deterministic order (first-write
	// location, then node id): the emission order decides which message
	// survives deduplication.
	objs := st.regionObjs
	slices.SortFunc(objs, func(a, b int32) int {
		ea, eb := st.region[a]-1, st.region[b]-1
		_, fa := s.trace.Site(int(ea))
		_, fb := s.trace.Site(int(eb))
		if c := strings.Compare(fa, fb); c != 0 {
			return c
		}
		if c := cmp.Compare(s.trace.Entries[ea].Line, s.trace.Entries[eb].Line); c != 0 {
			return c
		}
		return cmp.Compare(s.lay.node[a].ID(), s.lay.node[b].ID())
	})
	for _, o := range objs {
		if p := st.prevRegion[o]; p != 0 {
			_, file := s.trace.Site(int(p - 1))
			s.warn(report.RuleSemanticMismatch, st.region[o]-1,
				"consecutive transactions/epochs both write object %s (first written at %s:%d); the updates are not made durable atomically",
				nodeDesc(s.lay.node[o]), file, s.trace.Entries[p-1].Line)
		}
	}
	// The current region becomes the previous one.
	for _, o := range st.prevObjs {
		st.prevRegion[o] = 0
	}
	for _, o := range objs {
		st.prevRegion[o] = st.region[o]
		st.region[o] = 0
	}
	st.prevObjs, st.regionObjs = objs, st.prevObjs[:0]
	st.inRegion = false
}

func (s *scanner) atTraceEnd() {
	st := &s.st
	// Unflushed writes pending at the end of the program path.
	for _, w := range st.pending {
		if !w.covered && !s.loggedCovers(w.cell) {
			s.warn(report.RuleUnflushedWrite, w.entry,
				"write to %s never covered by a flush or undo log on this path", cellDesc(s.lay.cells[w.cell]))
		}
	}
	// Strict: flushes with no barrier at all before the path ends.
	if s.model == Strict && st.unfenced >= 0 {
		s.warn(report.RuleMissingBarrier, st.unfenced,
			"flush of %s is never followed by a persist barrier on this path", cellDesc(s.cellAt(st.unfenced)))
	}
	// CXL: domain writes never committed by a global persist barrier are
	// rolled back by a device failure — the contract's re-keying of the
	// missing-barrier obligation (DMC-X02).
	for _, i := range st.unbarriered {
		s.warn(report.RuleMissingGlobalBarrier, i,
			"persistence-domain write to %s is never committed by a global persist barrier on this path (a device failure discards it)",
			cellDesc(s.cellAt(i)))
	}
	// Static strand rule: concurrent strands with overlapping writes
	// carry WAW dependences (Table 4's strand rule).
	if s.model == Strand {
		s.checkStrandOverlaps()
	}
}

// checkStrandOverlaps pairs the strands in ascending id order — the
// emission order decides which message survives deduplication.  It
// sorts the working state's write list in place: the state is not
// scanned further, and snapshots hold copies.
func (s *scanner) checkStrandOverlaps() {
	ws := s.st.strandWrites
	slices.SortStableFunc(ws, func(a, b strandWrite) int { return cmp.Compare(a.strand, b.strand) })
	// Split into per-strand runs, each in write order.
	var runs [][]strandWrite
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].strand == ws[i].strand {
			j++
		}
		runs = append(runs, ws[i:j])
		i = j
	}
	for i, ra := range runs {
		for _, rb := range runs[i+1:] {
			for _, wa := range ra {
				for _, wb := range rb {
					if dsa.MayAlias(s.cellAt(wa.entry), s.cellAt(wb.entry)) {
						s.warn(report.RuleStrandDependence, wb.entry,
							"strands %d and %d both write %s: strands must be data-independent",
							wa.strand, wb.strand, cellDesc(s.cellAt(wb.entry)))
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
