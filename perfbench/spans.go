package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public call. Times are offsets from the recorder's base.
type span struct {
	id     int
	parent int // 0 for a root span
	repro  int // shared by every span of one reproduction (or job)
	tid    int // viewer track: the client goroutine, or a job track
	name   string
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one branch per
// call.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, repro, parent, tid int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, repro: repro, tid: tid, name: name, start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.base)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the
// server's queue-wait and run times), clipped to its parent's interval
// when it has one, and returns its id. The parent must have ended.
func (r *recorder) add(name string, repro, parent, tid int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	s, e := start.Sub(r.base), end.Sub(r.base)
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent > 0 {
		p := r.spans[parent-1]
		s, e = min(max(s, p.start), p.end), min(max(e, p.start), p.end)
	}
	e = max(e, s)
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, repro: repro, tid: tid, name: name, start: s, end: e})
	return len(r.spans)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that the union of its
// children's intervals covers. Children may overlap each other and
// need not lie inside their parent; only the covered part counts.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		pi, ok := idx[s.parent]
		if !ok {
			continue
		}
		p := spans[pi]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			children[s.parent] = append(children[s.parent], [2]time.Duration{lo, hi})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLen(children[s.id])
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	calls int
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
	durs  []float64     // per-call durations, ms
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.calls++
		lt.total += s.dur()
		lt.self += self[i]
		lt.durs = append(lt.durs, ms(s.dur()))
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, the
// envelope reprod -trace writes ({"traceEvents": [...]}), loadable in
// chrome://tracing and Perfetto. Each span is a complete ("X") event
// with its id, parent and reproduction id in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
		Repro  int `json:"repro"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.tid,
			Args: args{ID: s.id, Parent: s.parent, Repro: s.repro},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// layerTable renders per-span-name self time, then the per-layer
// metrics with the bases of their ratios.
func layerTable(spans []span, repros int, metrics []layerMetric) string {
	var sb strings.Builder
	agg := aggregate(spans)
	names := make([]string, 0, len(agg))
	var self time.Duration
	for n, lt := range agg {
		names = append(names, n)
		self += lt.self
	}
	sort.Slice(names, func(a, b int) bool { return agg[names[a]].self > agg[names[b]].self })
	fmt.Fprintf(&sb, "%-24s %8s %12s %12s %10s %7s\n", "span", "calls", "self_ms", "self_ms/rep", "p50_ms", "self%")
	for _, n := range names {
		lt := agg[n]
		share := 0.0
		if self > 0 {
			share = 100 * float64(lt.self) / float64(self)
		}
		fmt.Fprintf(&sb, "%-24s %8d %12.3f %12.4f %10.4f %6.1f%%\n",
			n, lt.calls, ms(lt.self), ms(lt.self)/float64(max(repros, 1)), median(lt.durs), share)
	}
	fmt.Fprintf(&sb, "\n%-36s %14s  %s\n", "per-layer metric", "value", "unit (base)")
	for _, m := range metrics {
		fmt.Fprintf(&sb, "%-36s %14.6g  %s", m.name, m.value, m.unit)
		if m.base != "" {
			fmt.Fprintf(&sb, " (%s)", m.base)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
