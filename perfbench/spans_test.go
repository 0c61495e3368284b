package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// TestSelfTimes checks self-time arithmetic on synthetic nested spans:
// overlapping children count once, grandchildren belong to their own
// parent, and a child reaching past its parent counts only inside it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "a", start: at(10), end: at(40)},
		{id: 3, parent: 1, name: "b", start: at(30), end: at(60)},
		{id: 4, parent: 2, name: "a.x", start: at(15), end: at(20)},
		{id: 5, parent: 1, name: "c", start: at(90), end: at(120)},
		{id: 6, name: "other", start: at(0), end: at(7)},
	}
	want := []time.Duration{
		at(40), // 100 - [10,60] - [90,100]
		at(25), // 30 - 5
		at(30),
		at(5),
		at(30),
		at(7),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}

	agg := aggregate(spans)
	if lt := agg["root"]; lt.calls != 1 || lt.self != at(40) || lt.total != at(100) {
		t.Errorf("aggregate root = %+v", *lt)
	}
	if got := selfDurations(spans, "a"); len(got) != 1 || got[0] != 25 {
		t.Errorf("selfDurations(a) = %v, want [25]", got)
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]time.Duration{{at(5), at(10)}, {at(0), at(3)}, {at(8), at(12)}, {at(12), at(13)}}
	if got := unionLen(iv); got != at(11) {
		t.Errorf("unionLen = %v, want 11ms", got)
	}
	if unionLen(nil) != 0 {
		t.Error("unionLen(nil) != 0")
	}
}

// TestRecorder checks span ids, parents and the clipping of intervals
// measured elsewhere to their parent.
func TestRecorder(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", 1, 0, 1); id != 0 {
		t.Fatalf("nil recorder begin = %d", id)
	}
	nilRec.end(0)
	if nilRec.add("x", 1, 0, 1, time.Now(), time.Now()) != 0 || nilRec.snapshot() != nil {
		t.Fatal("nil recorder must record nothing")
	}

	r := newRecorder()
	root := r.begin("root", 7, 0, 1)
	time.Sleep(2 * time.Millisecond)
	r.end(root)
	rs := r.snapshot()[0]
	child := r.add("late", 7, root, 1, r.base.Add(rs.start-time.Millisecond), r.base.Add(rs.end+time.Hour))
	spans := r.snapshot()
	c := spans[child-1]
	if c.parent != root || c.repro != 7 || c.start != rs.start || c.end != rs.end {
		t.Errorf("child %+v not clipped to parent %+v", c, rs)
	}
	if self := selfTimes(spans); self[0] != 0 {
		t.Errorf("parent fully covered by its child has self time %v", self[0])
	}
}

// TestChromeTrace checks the trace-event envelope reprod -trace also
// writes: {"traceEvents": [...]} of complete events in microseconds.
func TestChromeTrace(t *testing.T) {
	spans := []span{
		{id: 1, repro: 3, tid: 1, name: "repro", start: at(1), end: at(3)},
		{id: 2, parent: 1, repro: 3, tid: 1, name: "chess.search", start: 1500 * time.Microsecond, end: 2500*time.Microsecond + 500},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Pid  int
			Tid  int
			Args struct{ ID, Parent, Repro int }
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 2 || f.DisplayTimeUnit != "ms" {
		t.Fatalf("trace = %+v", f)
	}
	e := f.TraceEvents[1]
	if e.Name != "chess.search" || e.Ph != "X" || e.Ts != 1500 || e.Dur != 1000.5 || e.Args.Parent != 1 || e.Args.Repro != 3 || e.Pid != 1 || e.Tid != 1 {
		t.Errorf("event = %+v", e)
	}
}

func TestLayerTable(t *testing.T) {
	spans := []span{
		{id: 1, name: "repro", start: at(0), end: at(10)},
		{id: 2, parent: 1, name: "chess.search", start: at(2), end: at(8)},
	}
	out := layerTable(spans, 1, []layerMetric{{"chess.useful_trial_ratio", 0.5, "ratio", "1 tries / 2 trials executed"}})
	for _, want := range []string{"chess.search", "60.0%", "chess.useful_trial_ratio", "(1 tries / 2 trials executed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{name: "q", start: at(0), end: at(4)},
		{name: "other", start: at(4), end: at(9)},
		{name: "q", start: at(2), end: at(6)},
		{name: "q", start: at(8), end: at(10)},
	}
	if got := covered(spans, "q"); got != at(8) {
		t.Errorf("covered(q) = %v, want 8ms", got)
	}
}
