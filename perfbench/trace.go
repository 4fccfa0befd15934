package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"phloem/internal/core"
	"phloem/internal/obs"
)

// span is one timed call into a layer. Start and End are offsets from the
// tracer's epoch; Parent indexes the enclosing span (-1 for a round).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	// added marks a span timed outside the tracer (see add).
	added bool
}

// tracer keeps the spans of the traced rounds in memory. A disabled tracer
// takes no timestamps: begin returns -1 and end ignores it. Every span is
// recorded from the benchmark's one goroutine (the search runs with
// Parallelism 1 and calls its observer and trainers inline).
type tracer struct {
	on    bool
	epoch time.Time
	run   int

	spans []span
	stack []int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Run: t.run})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span that was timed elsewhere (the search observer's
// spans), as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Duration) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: t.run, added: true})
}

// reparent nests the spans recorded under p since index from: observer
// spans (recorded by add) by containment, and each span opened under p
// into the observer span it overlaps most. The search observer reports a
// span only when it closes, after the trainer spans it encloses were
// opened under the search span; the two clocks agree only to within a
// microsecond, so containment is judged by overlap.
func (t *tracer) reparent(from, p int) {
	var added, opened []int
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Parent != p {
			continue
		}
		if t.spans[i].added {
			added = append(added, i)
		} else {
			opened = append(opened, i)
		}
	}
	// The added spans share one clock: nest them by containment (a build
	// span encloses its commopt and verify spans).
	sort.Slice(added, func(i, j int) bool {
		a, b := t.spans[added[i]], t.spans[added[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var open []int
	for _, a := range added {
		for len(open) > 0 && t.spans[open[len(open)-1]].End < t.spans[a].End {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			t.spans[a].Parent = open[len(open)-1]
		}
		open = append(open, a)
	}
	// Later-starting spans are nested deeper, so ties go to them.
	for _, k := range opened {
		s := &t.spans[k]
		var best time.Duration
		for _, a := range added {
			o := min(s.End, t.spans[a].End) - max(s.Start, t.spans[a].Start)
			if o > 0 && o >= best {
				best, s.Parent = o, a
			}
		}
	}
}

// searchObserver turns the autotune search's Observer events into spans.
type searchObserver struct {
	t      *tracer
	anchor time.Duration
}

func (o *searchObserver) Observe(e core.SearchEvent) {
	switch e.Kind {
	case core.EvSearchStart:
		// Event offsets count from the search's own clock anchor, taken
		// just before this event was emitted.
		o.anchor = o.t.now() - e.Start
	case core.EvSerial, core.EvRank, core.EvBuild, core.EvCommOpt, core.EvVerify, core.EvTrain:
		if e.End > e.Start {
			o.t.add("core."+e.Kind.String(), o.anchor+e.Start, o.anchor+e.End)
		}
	}
}

// selfTimes returns, per span name, the summed duration, self time (the
// duration minus the part of it that child spans cover) and call count
// over the spans of one run (indexes into spans), plus the run's wall time
// (its root span). Each span is first clipped to its parent, so the self
// times of a run sum to its wall time.
func selfTimes(spans []span, mine []int) (total, self map[string]time.Duration, calls map[string]int, wall time.Duration) {
	total, self, calls = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	clip := map[int][2]time.Duration{}
	var clipped func(i int) [2]time.Duration
	clipped = func(i int) [2]time.Duration {
		if c, ok := clip[i]; ok {
			return c
		}
		s := spans[i]
		c := [2]time.Duration{s.Start, s.End}
		if s.Parent >= 0 {
			p := clipped(s.Parent)
			c = [2]time.Duration{max(c[0], p[0]), min(c[1], p[1])}
			c[1] = max(c[0], c[1])
		}
		clip[i] = c
		return c
	}
	kids := map[int][]int{}
	for _, i := range mine {
		s := spans[i]
		if s.Parent < 0 {
			wall += s.End - s.Start
		} else {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for _, i := range mine {
		c := clipped(i)
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			iv = append(iv, clipped(k))
		}
		name := spans[i].Name
		total[name] += c[1] - c[0]
		self[name] += c[1] - c[0] - union(iv)
		calls[name]++
	}
	return total, self, calls, wall
}

// union is the length of the union of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// writeTrace writes the traced rounds' spans and self times, and each
// search's Chrome trace through internal/obs, under dir.
func writeTrace(dir string, spans []span, searches map[string]*obs.Collector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	for name, c := range searches {
		f, err := os.Create(filepath.Join(dir, "search-"+name+".json"))
		if err != nil {
			return err
		}
		if err := c.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("write search trace %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
