package main

import (
	"sync"
	"time"
)

// tracer keeps every span of a traced run in memory until the run ends.
// A span is one call the benchmark made into a layer: its name, start
// and end (ns since the tracer started) and the span that caused it
// (-1 for a root; a root span's id is the op's identifier).
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	names   []string
	nameIdx map[string]uint16
	spans   []span
}

type span struct {
	name       uint16
	parent     int32
	start, end int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]uint16{}}
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.nameIdx[name]
	if !ok {
		idx = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = idx
	}
	t.spans = append(t.spans, span{name: idx, parent: parent, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// durations returns the durations of the closed spans named name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.nameIdx[name]
	if !ok {
		return nil
	}
	var out []int64
	for _, s := range t.spans {
		if s.name == idx && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfMs returns the mean, over the closed spans named name, of each
// span's duration minus the time its children named child cover.
func (t *tracer) selfMs(name, child string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	pi, ok1 := t.nameIdx[name]
	ci, ok2 := t.nameIdx[child]
	if !ok1 || !ok2 {
		return 0
	}
	covered := map[int32]int64{}
	for _, s := range t.spans {
		if s.name == ci && s.end >= 0 && s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var sum float64
	n := 0
	for id, s := range t.spans {
		if s.name == pi && s.end >= 0 {
			sum += float64(s.end - s.start - covered[int32(id)])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / 1e6 / float64(n)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	n     int
	total time.Duration
}

// meanMs is the mean span duration in milliseconds.
func (s spanStat) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / 1e6 / float64(s.n)
}

func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanStat{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[t.names[s.name]]
		st.n++
		st.total += time.Duration(s.end - s.start)
		out[t.names[s.name]] = st
	}
	return out
}
