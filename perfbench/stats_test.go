package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so the helpers must sort
	}
	return xs
}

// TestTailPercentileRule pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 0, false}, // rank 990 leaves 9 beyond
		{1000, 0.99, 990, true},
		{5000, 0.99, 4950, true},
		{19, 0.5, 0, false}, // rank 10 leaves 9 beyond
		{20, 0.5, 10, true},
		{0, 0.5, 0, false},
	} {
		got, ok := tailPercentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython compares against values printed by Python's
// statistics.quantiles(xs, n=4), the estimator the spread is judged
// by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestPhaseAccounting checks rate and CPU accounting on synthetic
// readings.
func TestPhaseAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := usage{wall: t0, cpu: 1 * time.Second}
	b := usage{wall: t0.Add(2 * time.Second), cpu: 4 * time.Second}
	p := phaseBetween(a, b, 400)
	if got := p.perSecond(); got != 200 {
		t.Errorf("perSecond = %v, want 200", got)
	}
	if got := p.cpuMsPerRepro(); got != 7.5 {
		t.Errorf("cpuMsPerRepro = %v, want 7.5 (3000 ms of CPU over 400)", got)
	}
	empty := phaseBetween(a, a, 0)
	if empty.perSecond() != 0 || empty.cpuMsPerRepro() != 0 {
		t.Errorf("an empty phase must read 0, got %v and %v", empty.perSecond(), empty.cpuMsPerRepro())
	}
}

// TestReadUsageCountsCPU checks that busy work shows up as process CPU
// time, and no more of it than wall time allows on the machine's CPUs.
func TestReadUsageCountsCPU(t *testing.T) {
	a := readUsage()
	x := 0.0
	for time.Since(a.wall) < 50*time.Millisecond {
		x += math.Sqrt(x + 1)
	}
	b := readUsage()
	p := phaseBetween(a, b, 1)
	if p.cpu < 20*time.Millisecond {
		t.Errorf("50ms of busy work read as %v of CPU", p.cpu)
	}
	if p.elapsed < 50*time.Millisecond {
		t.Errorf("elapsed %v, want at least 50ms", p.elapsed)
	}
	if peakRSSMiB() <= 0 {
		t.Error("peak RSS must be positive")
	}
}

// TestMeterReadsRSSAtCount checks that the peak resident set is read
// once the given count of reproductions has completed, kept from then
// on, and read at stop by a phase that ended short of the count.
func TestMeterReadsRSSAtCount(t *testing.T) {
	m := newMeter(3)
	m.done()
	m.done()
	if m.rssRead() {
		t.Fatal("read after 2 of 3 reproductions")
	}
	m.done()
	if !m.rssRead() || m.rss <= 0 {
		t.Fatalf("after 3 of 3: read %v, rss %v", m.rssRead(), m.rss)
	}
	at := m.rss
	grow := make([]byte, 64<<20)
	for i := range grow {
		grow[i] = 1
	}
	m.done()
	if _, _, rss := m.stop(); rss != at {
		t.Errorf("stop reported %v MiB, want the %v read at the count", rss, at)
	}
	if len(grow) == 0 {
		t.Fatal("unreachable: keeps grow live")
	}

	short := newMeter(10)
	short.done()
	if _, _, rss := short.stop(); rss <= 0 {
		t.Errorf("a phase short of its count must read the peak at stop, got %v", rss)
	}
}
