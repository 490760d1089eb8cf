package checker

import (
	"fmt"

	"deepmc/internal/report"
)

// ResumeMismatch scans fn's traces as CheckModule does and checks every
// rule state the prefix-resumed scan relies on against a scan of the
// trace alone: each snapshot against the lone scan's state at its fork,
// and each trace's final state against the lone scan's.  It returns how
// many traces resumed from a snapshot and the first mismatch ("" if
// none).  States compare in their %+v form, which prints nil and empty
// slices alike, as the rules read them.
func (c *Checker) ResumeMismatch(fn string) (resumed int, mismatch string) {
	s := c.newScanner(report.New())
	s.snaps = make(map[uint32]*state)
	// A snapshot never changes, and every trace holding its fork has the
	// same prefix, so one comparison per snapshot suffices.
	checked := make(map[uint32]bool)
	for ti, t := range c.Collector.FunctionTraces(fn) {
		for _, f := range t.Forks {
			if s.snaps[f.ID] != nil {
				resumed++
				break
			}
		}
		s.scan(t)
		alone := c.newScanner(report.New())
		alone.lay, alone.trace = s.lay, t
		alone.st.copyFrom(&s.lay.init)
		forks := t.Forks
		for i := 0; i <= len(t.Entries); i++ {
			for ; len(forks) > 0 && int(forks[0].At) == i; forks = forks[1:] {
				if checked[forks[0].ID] {
					continue
				}
				checked[forks[0].ID] = true
				if got, want := fmt.Sprintf("%+v", *s.snaps[forks[0].ID]), fmt.Sprintf("%+v", alone.st); got != want {
					return resumed, fmt.Sprintf("%s trace %d: snapshot at %d\n%s\nwant\n%s", fn, ti, i, got, want)
				}
			}
			if i < len(t.Entries) {
				alone.step(int32(i))
			}
		}
		alone.atTraceEnd()
		if got, want := fmt.Sprintf("%+v", s.st), fmt.Sprintf("%+v", alone.st); got != want {
			return resumed, fmt.Sprintf("%s trace %d: final state\n%s\nwant\n%s", fn, ti, got, want)
		}
	}
	return resumed, ""
}
