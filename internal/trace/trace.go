// Package trace implements DeepMC's trace collection (paper §4.3).
//
// A trace is the sequence of persistency-relevant operations — persistent
// writes, cacheline flushes, persist barriers, transaction/epoch/strand
// markers — along one control-flow path of a function, with callee traces
// merged into call sites (Figure 11 of the paper).  The collector:
//
//   - walks each function's CFG depth-first, bounding loop iterations
//     (default 10 visits per block, as in the paper) and the total number
//     of explored paths;
//   - prioritizes paths that contain persistent operations, using the
//     DSG's knowledge of which blocks touch persistent objects;
//   - keeps only operations whose target the DSA proved to live in NVM;
//   - merges callee traces into caller traces in call-graph post-order,
//     translating callee abstract locations into the caller's context
//     through the per-call-site DSA clone mappings.
//
// Exploration never copies a path: a continuation is a chain of shared,
// immutable entry runs, written out once the function's exploration
// ends, all of its traces into one array.  Entries are small and
// pointer-free; their cells and sites index a per-function table shared
// by all of the function's traces.  Each trace also lists its forks, the
// ends of the prefixes it shares with the function's other traces, so
// the checker can scan a shared prefix once.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"deepmc/internal/cfg"
	"deepmc/internal/dsa"
	"deepmc/internal/ir"
)

// Kind classifies trace entries.
type Kind uint8

const (
	// KWrite is a persistent store (store/memcopy/memset to NVM).
	KWrite Kind = iota
	// KFlush is a cacheline write-back of persistent storage.
	KFlush
	// KFence is a persist barrier.
	KFence
	// KTxBegin / KTxEnd / KTxAdd are transaction markers.
	KTxBegin
	KTxEnd
	KTxAdd
	// KEpochBegin / KEpochEnd are epoch boundaries.
	KEpochBegin
	KEpochEnd
	// KStrandBegin / KStrandEnd are strand boundaries.
	KStrandBegin
	KStrandEnd
)

var kindNames = [...]string{
	KWrite: "write", KFlush: "flush", KFence: "fence",
	KTxBegin: "txbegin", KTxEnd: "txend", KTxAdd: "txadd",
	KEpochBegin: "epochbegin", KEpochEnd: "epochend",
	KStrandBegin: "strandbegin", KStrandEnd: "strandend",
}

func (k Kind) String() string { return kindNames[k] }

// Entry is one persistency-relevant operation in a trace, in the
// compact form traces store: no pointers, so trace slices are neither
// scanned by the garbage collector nor expensive to copy.  Its abstract
// location and its defining (Func, File) site are indices into the
// trace's table; Trace.Op expands an entry into the full Op.
type Entry struct {
	// Line locates the operation in its defining function.
	Line int
	// arg is the explicit byte count of a sized flush (0 if none) or
	// the strand id of a strand marker (-1 if dynamic).
	arg  int64
	cell uint32
	site uint32
	Kind Kind
}

// CellIndex returns the index of the entry's abstract location in its
// trace's table (0, the empty cell, for entries without one).
func (e *Entry) CellIndex() uint32 { return e.cell }

// Strand returns a strand marker's strand id (-1 if dynamic).
func (e *Entry) Strand() int64 { return e.arg }

// Op is one trace entry expanded against its trace's table.
type Op struct {
	Kind Kind
	// Cell is the abstract location for write/flush/txadd entries,
	// expressed in the root function's DSG context.
	Cell dsa.Cell
	// Size is the explicit byte count of a sized flush, or 0.
	Size int
	// Func / File / Line locate the operation in its defining function
	// (callee locations survive merging).
	Func string
	File string
	Line int
	// Strand is the strand id for strand markers (-1 if dynamic).
	Strand int64
}

// String renders the operation for diagnostics.
func (e Op) String() string {
	switch e.Kind {
	case KWrite, KFlush, KTxAdd:
		return fmt.Sprintf("%s %s @%s:%d", e.Kind, e.Cell, e.File, e.Line)
	case KStrandBegin, KStrandEnd:
		return fmt.Sprintf("%s %d @%s:%d", e.Kind, e.Strand, e.File, e.Line)
	default:
		return fmt.Sprintf("%s @%s:%d", e.Kind, e.File, e.Line)
	}
}

// Table holds the abstract locations and defining sites that one
// function's trace entries index.  It is built while the function is
// explored and immutable once its traces are published; all of the
// function's traces share it.  Index 0 is the empty cell and the
// function's own site.
type Table struct {
	cells []dsa.Cell
	sites []site
}

// Cells returns the table's abstract locations, indexed by
// Entry.CellIndex.  The slice is shared: callers must not modify it.
func (tb *Table) Cells() []dsa.Cell {
	if tb == nil {
		return nil
	}
	return tb.cells
}

// site is a defining (function, file) pair.
type site struct{ fn, file string }

// Trace is one merged path through a function.
type Trace struct {
	Func    string
	Entries []Entry
	// Forks lists, in ascending position, the ends of the prefixes this
	// trace shares with other traces of the same function: the first At
	// entries of every trace that lists the same ID are identical.  A
	// trace without forks (one copied without them, say) is scanned in
	// full.
	Forks []Fork
	// tab is the table of the function the trace was collected for,
	// shared by all of that function's traces.
	tab *Table
}

// Fork marks the end of a shared prefix: position At of a trace, where
// a continuation chunk that other traces of the function also contain
// ends.  ID names the chunk, uniquely within the function's trace set.
type Fork struct {
	At, ID uint32
}

// Table returns the trace's table, shared by all traces of its function.
func (t *Trace) Table() *Table { return t.tab }

// Site returns the defining function and file of the i'th entry.
func (t *Trace) Site(i int) (fn, file string) {
	s := t.tab.sites[t.Entries[i].site]
	return s.fn, s.file
}

// Op expands the i'th entry.
func (t *Trace) Op(i int) Op {
	e := t.Entries[i]
	s := t.tab.sites[e.site]
	op := Op{Kind: e.Kind, Cell: t.tab.cells[e.cell], Func: s.fn, File: s.file, Line: e.Line, Strand: -1}
	switch e.Kind {
	case KFlush:
		op.Size = int(e.arg)
	case KStrandBegin, KStrandEnd:
		op.Strand = e.arg
	}
	return op
}

// String renders the whole trace, one entry per line.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace of %s:\n", t.Func)
	for i := range t.Entries {
		fmt.Fprintf(&b, "  %s\n", t.Op(i).String())
	}
	return b.String()
}

// PersistentOps counts write/flush entries (used for prioritization).
func (t *Trace) PersistentOps() int {
	n := 0
	for _, e := range t.Entries {
		if e.Kind == KWrite || e.Kind == KFlush {
			n++
		}
	}
	return n
}

// Options bound the exploration.
type Options struct {
	// LoopIterations caps how many times one block may appear on a single
	// path (the paper's "small number of paths for loop iterations",
	// default 10).
	LoopIterations int
	// MaxPaths caps the number of distinct paths explored per function.
	MaxPaths int
	// MaxCalleeVariants caps how many callee trace variants are spliced
	// into each call site (keeps the cross product bounded).
	MaxCalleeVariants int
	// PrioritizePersistent explores successors that reach persistent
	// operations first, as the paper describes; the ablation bench turns
	// it off.
	PrioritizePersistent bool
	// MaxTraceEntries caps one merged trace's length; longer paths are
	// analyzed up to the cap (the bounded-exploration analogue of the
	// paper's loop and recursion limits, keeping rule checking linear on
	// interprocedurally merged code).
	MaxTraceEntries int
	// Cancelled, when non-nil, is polled during path exploration; once
	// it returns true the walk stops forking and returns the paths
	// collected so far.  The partial trace set is still memoized —
	// callers that cancel must treat every downstream finding set as
	// partial (core.AnalyzeCtx annotates the report).
	Cancelled func() bool
}

// DefaultOptions mirrors the paper's defaults.
func DefaultOptions() Options {
	return Options{
		LoopIterations:       10,
		MaxPaths:             64,
		MaxCalleeVariants:    4,
		PrioritizePersistent: true,
		MaxTraceEntries:      4096,
	}
}

// Collector memoizes merged traces per function over one DSA result.
// It is safe for concurrent use: the memo is mutex-guarded, the
// computation itself works on chain-local state, and the per-function
// result is deterministic, so racing chains that duplicate a
// computation converge on identical traces (first writer wins).
type Collector struct {
	Analysis *dsa.Analysis
	Opts     Options

	mu   sync.Mutex
	memo map[string][]*Trace
	// computed records the functions this collector explored itself, as
	// opposed to memo entries installed by Seed — the observable the
	// incremental-cache tests assert on ("exactly the mutated function's
	// artifacts were recomputed").
	computed map[string]bool
	// truncated records the functions whose merged traces hit the
	// trace-entry budget (MaxTraceEntries), directly or through a
	// truncated callee splice.  Their traces cover only a bounded prefix
	// of the function's behavior, so downstream verdicts must be
	// reported as partial (budget-attributed skips), never memoized as
	// complete.
	truncated map[string]bool
}

// NewCollector creates a collector over a finished DSA.
func NewCollector(a *dsa.Analysis, opts Options) *Collector {
	if opts.LoopIterations <= 0 {
		opts.LoopIterations = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 1
	}
	if opts.MaxCalleeVariants <= 0 {
		opts.MaxCalleeVariants = 1
	}
	if opts.MaxTraceEntries <= 0 {
		opts.MaxTraceEntries = 4096
	}
	return &Collector{
		Analysis:  a,
		Opts:      opts,
		memo:      make(map[string][]*Trace),
		computed:  make(map[string]bool),
		truncated: make(map[string]bool),
	}
}

// Seed installs externally memoized traces for fn — the warm path of a
// content-addressed artifact cache.  Subsequent FunctionTraces calls
// return them without path exploration.  The traces must come from an
// identical (function closure, DSA options, trace options) fingerprint:
// entries reference the abstract cells of the run that produced them,
// which is sound because rule scanning compares cells only within one
// trace set.  truncated must carry the producing run's budget flag so a
// warm scan degrades exactly like the cold one did.  A seed never
// overwrites an already-computed entry.
func (c *Collector) Seed(fn string, ts []*Trace, truncated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.memo[fn]; !ok {
		c.memo[fn] = ts
		if truncated {
			c.truncated[fn] = true
		}
	}
}

// Truncated reports whether fn's memoized traces hit the trace-entry
// budget (directly or via a truncated callee): its findings cover a
// bounded prefix only.  False for functions not yet collected.
func (c *Collector) Truncated(fn string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated[fn]
}

// ComputedFuncs returns (sorted) the functions whose traces this
// collector actually explored, excluding seeded entries.
func (c *Collector) ComputedFuncs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.computed))
	for fn := range c.computed {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// SetCancelled installs the cancellation poll (Options.Cancelled) on an
// existing collector.  Install it before fanning out workers; the field
// write is not synchronized against concurrent FunctionTraces calls.
func (c *Collector) SetCancelled(f func() bool) { c.Opts.Cancelled = f }

// FunctionTraces returns the merged traces of the named function, most
// persistent-heavy first.
func (c *Collector) FunctionTraces(fn string) []*Trace {
	return c.collect(fn, make(map[string]bool))
}

// collect computes (or recalls) one function's traces.  visiting tracks
// the functions on the current recursive descent — one chain of calls
// within a single goroutine — so recursion cycles are cut off without
// mistaking another goroutine's in-flight computation for a cycle.
func (c *Collector) collect(fn string, visiting map[string]bool) []*Trace {
	c.mu.Lock()
	ts, ok := c.memo[fn]
	c.mu.Unlock()
	if ok {
		return ts
	}
	f := c.Analysis.Module.Funcs[fn]
	if f == nil {
		return nil
	}
	if visiting[fn] {
		// Recursion cycle: cut it off (the paper bounds recursion; a
		// cycle member sees its callees-in-cycle as opaque).
		return nil
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	// A function whose CFG cannot be built (malformed branch targets in
	// hand-written PIR) is treated as opaque — no traces — rather than
	// panicking out of a batch analysis.
	g, err := cfg.New(f)
	if err != nil {
		return nil
	}
	e := newExplorer(c, f, g, visiting)
	var paths []*Trace
	if entry := g.Entry(); entry != nil {
		e.walk(entry, nil, &paths)
	}
	e.writeOut(paths)
	// Prioritize persistent-op-heavy traces (stable by construction order).
	sortTraces(paths)
	c.mu.Lock()
	if existing, done := c.memo[fn]; done {
		// Another chain published first.  The computation is a pure
		// function of (module, DSA, options), so both results are
		// identical; keep the canonical copy.
		paths = existing
	} else {
		c.memo[fn] = paths
		c.computed[fn] = true
		if e.truncated {
			c.truncated[fn] = true
		}
	}
	c.mu.Unlock()
	return paths
}

// sortTraces orders traces by descending persistent-op count, stable.
func sortTraces(ts []*Trace) {
	// Insertion sort keeps stability without importing sort.SliceStable
	// gymnastics on a tiny slice.  Each trace's count is taken once and
	// moves with its trace.
	n := make([]int, len(ts))
	for i, t := range ts {
		n[i] = t.PersistentOps()
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && n[j] > n[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
			n[j], n[j-1] = n[j-1], n[j]
		}
	}
}

// chunk is one link of a continuation: a run of entries following its
// parent's.  Chunks' entries are immutable once built, so continuations
// that fork at a branch or a call site share their common prefix
// instead of copying it; a trace is written out once, after the walk.
// A nil chunk is the empty continuation.
type chunk struct {
	parent *chunk
	run    []Entry
	// n is the continuation's total length through this chunk.
	n int
	// refs counts the written-out traces whose chain holds the chunk;
	// id is its Fork.ID, assigned once the chunk proves shared.
	refs, id uint32
}

func (c *chunk) len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// extend returns c followed by run, sharing c.
func (c *chunk) extend(run []Entry) *chunk {
	if len(run) == 0 {
		return c
	}
	return &chunk{parent: c, run: run, n: c.len() + len(run)}
}

// writeTo writes the continuation out into out, which holds exactly
// its length.
func (c *chunk) writeTo(out []Entry) {
	for ; c != nil; c = c.parent {
		copy(out[c.n-len(c.run):c.n], c.run)
	}
}

// writeOut writes each trace's continuation out, into one array for
// all of the function's traces, and records on each trace the ends of
// the chunks its chain shares with other traces (refs >= 2), as
// positions and small ids; then it lets the chunks go.  A shared chunk
// whose next shared descendant on the chain is held by exactly as many
// traces is left out: the two are held by the same traces (a
// descendant's traces are a subset of its ancestor's), so every trace
// that reaches the shallower end also reaches the deeper one.
func (e *explorer) writeOut(ts []*Trace) {
	total := 0
	for _, leaf := range e.leaves {
		total += leaf.len()
	}
	buf := make([]Entry, total)
	var forks []Fork
	ends := make([]int, len(ts))
	for i, leaf := range e.leaves {
		if n := leaf.len(); n > 0 {
			ts[i].Entries = buf[:n:n]
			leaf.writeTo(ts[i].Entries)
			buf = buf[n:]
		}
		from := len(forks)
		deeper := uint32(0)
		for ch := leaf; ch != nil; ch = ch.parent {
			if ch.refs < 2 || ch.refs == deeper {
				continue
			}
			deeper = ch.refs
			if ch.id == 0 {
				e.forkIDs++
				ch.id = e.forkIDs
			}
			forks = append(forks, Fork{At: uint32(ch.n), ID: ch.id})
		}
		slices.Reverse(forks[from:])
		ends[i] = len(forks)
	}
	// The forks share one array too, sliced once it stops growing.
	from := 0
	for i, end := range ends {
		if end > from {
			ts[i].Forks = forks[from:end:end]
		}
		from = end
	}
	e.leaves = nil
}

// blockPlan is one block's expansion, computed on its first visit: the
// block's own entries grouped into runs between the call sites that
// splice callee traces, and its successors in exploration order.
type blockPlan struct {
	segs  []segment
	succs []*cfg.Node
	// visits counts the block's occurrences on the current path.
	visits int
}

// segment is either a run of the block's own entries or a call site.
// A call site's callee variants, translated into this function's context
// and table, are computed on its first visit and reused on every later
// one.
type segment struct {
	run        []Entry
	call       *ir.Instr
	ref        ir.InstrRef
	variants   [][]Entry
	translated bool
}

// explorer enumerates paths through one function.
type explorer struct {
	c   *Collector
	f   *ir.Function
	g   *cfg.Graph
	dsg *dsa.Graph
	// visiting is the enclosing chain's recursion guard, threaded through
	// to callee collections.
	visiting map[string]bool
	// reach[block] reports whether any persistent op is reachable from
	// the block within this function (prioritization metric).
	reach map[string]bool
	// plans is indexed by cfg.Node.Index.
	plans []*blockPlan
	// tab is the function's table; cellIdx and siteIdx intern into it.
	tab     *Table
	cellIdx map[dsa.Cell]uint32
	siteIdx map[site]uint32
	// truncated latches when any continuation hits the trace-entry
	// budget, or a spliced callee's traces were themselves truncated.
	truncated bool
	// leaves holds each ended path's continuation, in the order of the
	// traces, until writeOut has written them out.
	leaves  []*chunk
	forkIDs uint32
}

func newExplorer(c *Collector, f *ir.Function, g *cfg.Graph, visiting map[string]bool) *explorer {
	own := site{f.Name, f.File}
	e := &explorer{
		c: c, f: f, g: g,
		dsg:      c.Analysis.Graph(f.Name),
		visiting: visiting,
		plans:    make([]*blockPlan, len(g.Nodes)),
		tab:      &Table{cells: []dsa.Cell{{}}, sites: []site{own}},
		cellIdx:  map[dsa.Cell]uint32{{}: 0},
		siteIdx:  map[site]uint32{own: 0},
	}
	e.reach = e.computeReach()
	return e
}

func (e *explorer) internCell(c dsa.Cell) uint32 {
	i, ok := e.cellIdx[c]
	if !ok {
		i = uint32(len(e.tab.cells))
		e.tab.cells = append(e.tab.cells, c)
		e.cellIdx[c] = i
	}
	return i
}

func (e *explorer) internSite(s site) uint32 {
	i, ok := e.siteIdx[s]
	if !ok {
		i = uint32(len(e.tab.sites))
		e.tab.sites = append(e.tab.sites, s)
		e.siteIdx[s] = i
	}
	return i
}

// computeReach marks blocks from which a persistent operation is
// reachable, used to order successor exploration.
func (e *explorer) computeReach() map[string]bool {
	r := make(map[string]bool, len(e.g.Nodes))
	// A block "has" a persistent op if any store/flush/txadd in it touches
	// a persistent cell, or it contains a call (callees may persist).
	has := func(b *ir.Block) bool {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpStore, ir.OpFlush, ir.OpTxAdd, ir.OpMemCopy, ir.OpMemSet:
				if cell := e.cellOf(in.Args[0]); cell.IsPtr() && cell.Obj.Persistent() {
					return true
				}
			case ir.OpCall, ir.OpFence, ir.OpTxBegin, ir.OpTxEnd,
				ir.OpEpochBegin, ir.OpEpochEnd, ir.OpStrandBegin, ir.OpStrandEnd:
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, n := range e.g.Nodes {
			if r[n.Block.Name] {
				continue
			}
			if has(n.Block) {
				r[n.Block.Name] = true
				changed = true
				continue
			}
			for _, s := range n.Succs {
				if r[s.Block.Name] {
					r[n.Block.Name] = true
					changed = true
					break
				}
			}
		}
	}
	return r
}

func (e *explorer) cellOf(v ir.Value) dsa.Cell {
	if r, ok := v.(ir.Reg); ok {
		return e.dsg.RegCell(r.Name)
	}
	return dsa.Cell{}
}

// plan returns n's block plan, building it on first use.
func (e *explorer) plan(n *cfg.Node) *blockPlan {
	if p := e.plans[n.Index]; p != nil {
		return p
	}
	p := &blockPlan{succs: e.orderedSuccs(n)}
	b := n.Block
	var run []Entry
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.OpCall {
			if _, defined := e.c.Analysis.Module.Funcs[in.Callee]; !defined {
				continue
			}
			if len(run) > 0 {
				p.segs = append(p.segs, segment{run: run})
				run = nil
			}
			p.segs = append(p.segs, segment{call: in, ref: ir.InstrRef{Func: e.f.Name, Block: b.Name, Index: i}})
		} else if entry, ok := e.entryFor(in); ok {
			run = append(run, entry)
		}
	}
	if len(run) > 0 {
		p.segs = append(p.segs, segment{run: run})
	}
	e.plans[n.Index] = p
	return p
}

// walk explores paths depth-first.  prefix holds the entries accumulated
// so far.
func (e *explorer) walk(n *cfg.Node, prefix *chunk, out *[]*Trace) {
	if len(*out) >= e.c.Opts.MaxPaths {
		return
	}
	if e.c.Opts.Cancelled != nil && e.c.Opts.Cancelled() {
		return
	}
	p := e.plan(n)
	if p.visits >= e.c.Opts.LoopIterations {
		return
	}
	p.visits++
	defer func() { p.visits-- }()

	// Expanding the block may fork the path at call sites with several
	// callee variants, so block expansion yields a list of continuations.
	conts := e.expandBlock(p, prefix)
	for _, cont := range conts {
		if len(p.succs) == 0 {
			// Path ends here (ret); writeOut fills the trace in.
			*out = append(*out, &Trace{Func: e.f.Name, tab: e.tab})
			e.leaves = append(e.leaves, cont)
			for ch := cont; ch != nil; ch = ch.parent {
				ch.refs++
			}
			if len(*out) >= e.c.Opts.MaxPaths {
				return
			}
			continue
		}
		for _, s := range p.succs {
			e.walk(s, cont, out)
			if len(*out) >= e.c.Opts.MaxPaths {
				return
			}
		}
	}
}

// orderedSuccs returns successors, persistent-reaching first when
// prioritization is on.
func (e *explorer) orderedSuccs(n *cfg.Node) []*cfg.Node {
	succs := n.Succs
	if !e.c.Opts.PrioritizePersistent || len(succs) < 2 {
		return succs
	}
	r := e.reach
	ordered := make([]*cfg.Node, 0, len(succs))
	for _, s := range succs {
		if r[s.Block.Name] {
			ordered = append(ordered, s)
		}
	}
	for _, s := range succs {
		if !r[s.Block.Name] {
			ordered = append(ordered, s)
		}
	}
	return ordered
}

// expandBlock extends prefix by the block's entries.  Call sites to
// defined callees splice in callee traces (several variants fork the
// path).  It returns all resulting continuations.
func (e *explorer) expandBlock(p *blockPlan, prefix *chunk) []*chunk {
	conts := []*chunk{prefix}
	max := e.c.Opts.MaxTraceEntries
	for si := range p.segs {
		seg := &p.segs[si]
		if seg.call == nil {
			for ci, cont := range conts {
				run := seg.run
				if room := max - cont.len(); room < len(run) {
					// Entries dropped: the budget is exhausted.
					e.truncated = true
					if room < 0 {
						room = 0
					}
					run = run[:room]
				}
				conts[ci] = cont.extend(run)
			}
			continue
		}
		if !seg.translated {
			seg.variants = e.calleeVariants(seg.call, seg.ref)
			seg.translated = true
		}
		variants := seg.variants
		if len(variants) == 0 {
			continue
		}
		var next []*chunk
		for _, cont := range conts {
			for _, v := range variants {
				if cont.len() >= max {
					// The path already hit the entry budget; keep it
					// as-is instead of splicing further callees.
					e.truncated = true
					next = append(next, cont)
					break
				}
				room := max - cont.len()
				if room >= len(v) {
					room = len(v)
				} else {
					// Only a prefix of the callee trace fits.
					e.truncated = true
				}
				next = append(next, cont.extend(v[:room]))
				if len(next) >= e.c.Opts.MaxPaths {
					break
				}
			}
			if len(next) >= e.c.Opts.MaxPaths {
				break
			}
		}
		conts = next
	}
	return conts
}

// calleeVariants returns the callee's merged trace entry lists translated
// into this function's DSG context and table, capped at
// MaxCalleeVariants.
func (e *explorer) calleeVariants(in *ir.Instr, ref ir.InstrRef) [][]Entry {
	calleeTraces := e.c.collect(in.Callee, e.visiting)
	if e.c.Truncated(in.Callee) {
		// The splice inherits the callee's budget exhaustion: the merged
		// caller trace covers only a prefix of the callee's behavior.
		e.truncated = true
	}
	if len(calleeTraces) == 0 {
		return nil
	}
	limit := e.c.Opts.MaxCalleeVariants
	if limit > len(calleeTraces) {
		limit = len(calleeTraces)
	}
	total := 0
	for _, t := range calleeTraces[:limit] {
		total += len(t.Entries)
	}
	// All of a function's traces share its table (seeded ones carry the
	// table of the run that produced them), so one remap serves them all.
	rm := e.newRemap(calleeTraces[0].tab, e.dsg.CallMaps[ref])
	buf := make([]Entry, 0, total)
	out := make([][]Entry, 0, limit)
	for _, t := range calleeTraces[:limit] {
		start := len(buf)
		for _, en := range t.Entries {
			en.cell = e.remapCell(rm, en.cell)
			en.site = rm.sites[en.site]
			buf = append(buf, en)
		}
		out = append(out, buf[start:len(buf):len(buf)])
	}
	return out
}

// remap translates a callee table's indices into the caller's table.
// Sites are mapped eagerly; cells on first use, through the call site's
// DSA clone mapping.
type remap struct {
	from    *Table
	mapping map[*dsa.Node]*dsa.Node
	// cells[i] is the caller index of callee cell i, 0 until resolved
	// (only the empty cell maps to 0).
	cells []uint32
	sites []uint32
}

func (e *explorer) newRemap(from *Table, mapping map[*dsa.Node]*dsa.Node) *remap {
	rm := &remap{from: from, mapping: mapping,
		cells: make([]uint32, len(from.cells)), sites: make([]uint32, len(from.sites))}
	for i, s := range from.sites {
		rm.sites[i] = e.internSite(s)
	}
	return rm
}

func (e *explorer) remapCell(rm *remap, i uint32) uint32 {
	if i != 0 && rm.cells[i] == 0 {
		rm.cells[i] = e.internCell(translateCell(rm.from.cells[i], rm.mapping))
	}
	return rm.cells[i]
}

// translateCell maps a callee-context cell into the caller's context via
// the DSA clone mapping; unmapped cells (recursion cut-offs) pass through.
func translateCell(c dsa.Cell, mapping map[*dsa.Node]*dsa.Node) dsa.Cell {
	if c.Obj == nil || mapping == nil {
		return c
	}
	if t, ok := mapping[c.Obj.Find()]; ok {
		return dsa.Cell{Obj: t.Find(), Field: c.Field}.Norm()
	}
	if t, ok := mapping[c.Obj]; ok {
		return dsa.Cell{Obj: t.Find(), Field: c.Field}.Norm()
	}
	return c
}

// entryFor converts one of the function's own instructions to a trace
// entry.  Writes, flushes and txadds to non-persistent storage are
// dropped, as in the paper.
func (e *explorer) entryFor(in *ir.Instr) (Entry, bool) {
	base := Entry{Line: in.Line}
	persistentTarget := func(v ir.Value) (uint32, bool) {
		cell := e.cellOf(v)
		if !cell.IsPtr() || !cell.Obj.Persistent() {
			return 0, false
		}
		return e.internCell(cell), true
	}
	switch in.Op {
	case ir.OpStore, ir.OpMemCopy, ir.OpMemSet:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KWrite
		base.cell = cell
		return base, true
	case ir.OpFlush:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KFlush
		base.cell = cell
		if len(in.Args) > 1 {
			if c, isC := in.Args[1].(ir.Const); isC {
				base.arg = c.Val
			}
		}
		return base, true
	case ir.OpTxAdd:
		cell, ok := persistentTarget(in.Args[0])
		if !ok {
			return Entry{}, false
		}
		base.Kind = KTxAdd
		base.cell = cell
		return base, true
	case ir.OpFence:
		base.Kind = KFence
		return base, true
	case ir.OpTxBegin:
		base.Kind = KTxBegin
		return base, true
	case ir.OpTxEnd:
		base.Kind = KTxEnd
		return base, true
	case ir.OpEpochBegin:
		base.Kind = KEpochBegin
		return base, true
	case ir.OpEpochEnd:
		base.Kind = KEpochEnd
		return base, true
	case ir.OpStrandBegin, ir.OpStrandEnd:
		if in.Op == ir.OpStrandBegin {
			base.Kind = KStrandBegin
		} else {
			base.Kind = KStrandEnd
		}
		base.arg = -1
		if c, isC := in.Args[0].(ir.Const); isC {
			base.arg = c.Val
		}
		return base, true
	}
	return Entry{}, false
}
