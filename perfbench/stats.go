package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p99 over fewer than 1000 samples would be
// set by a handful of outliers, not by the tail.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). It sorts a copy; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the q-quantile of xs by nearest rank, and
// whether it may be reported: at least minTail samples must lie beyond
// it.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) (the default
// exclusive method) computes them. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is one reading of the wall clock and the process's CPU time.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system, all threads
}

// readUsage samples the clock and getrusage(RUSAGE_SELF).
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu}
}

// phase is the accounting of a timed phase between two readings.
type phase struct {
	elapsed time.Duration
	cpu     time.Duration
	repros  int
}

func phaseBetween(a, b usage, repros int) phase {
	return phase{elapsed: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, repros: repros}
}

// perSecond is completed reproductions per second of the phase.
func (p phase) perSecond() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.repros) / p.elapsed.Seconds()
}

// cpuMsPerRepro is the process CPU the phase burned per completed
// reproduction.
func (p phase) cpuMsPerRepro() float64 {
	if p.repros == 0 {
		return 0
	}
	return ms(p.cpu) / float64(p.repros)
}

// window is the length of the slices a timed phase is cut into. Rate
// and CPU per reproduction are reported as medians over the windows,
// so that a second in which the machine ran something else moves them
// less than it moves a whole-phase mean.
const window = time.Second

// meter cuts a timed phase into windows, counting the reproductions
// completed in each. It is safe for concurrent use; a nil meter counts
// nothing.
type meter struct {
	mu      sync.Mutex
	start   usage
	last    usage // reading that opened the current window
	count   int   // completed in the current window
	total   int
	windows []phase
	// rssAt is the count of completed reproductions at which rss, the
	// process's peak resident set so far, is read.
	rssAt int
	rss   float64
}

// newMeter starts a phase that reads the peak resident set once
// rssAt reproductions have completed.
func newMeter(rssAt int) *meter {
	u := readUsage()
	return &meter{start: u, last: u, rssAt: rssAt}
}

// rssRead reports whether the peak resident set has been read.
func (m *meter) rssRead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total >= m.rssAt
}

// done counts one completed reproduction, closing the current window
// once it has lasted window.
func (m *meter) done() {
	if m == nil {
		return
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count++
	m.total++
	if m.total == m.rssAt {
		m.rss = peakRSSMiB()
	}
	if now.Sub(m.last.wall) >= window {
		u := readUsage()
		m.windows = append(m.windows, phaseBetween(m.last, u, m.count))
		m.last, m.count = u, 0
	}
}

// stop ends the phase and returns its totals, its closed windows and
// the peak resident set in MiB: as read at rssAt reproductions, or, in
// a phase that ended short of them, now.
func (m *meter) stop() (phase, []phase, float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.total < m.rssAt {
		m.rss = peakRSSMiB()
		fmt.Fprintf(os.Stderr, "perfbench: peak_rss_mb read after %d reproductions, short of %d\n", m.total, m.rssAt)
	}
	return phaseBetween(m.start, readUsage(), m.total), m.windows, m.rss
}

// windowMedian is the median of f over the windows, or f of the whole
// phase when no window closed.
func windowMedian(whole phase, windows []phase, f func(phase) float64) float64 {
	if len(windows) == 0 {
		return f(whole)
	}
	xs := make([]float64, len(windows))
	for i, w := range windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// peakRSSMiB is the process's peak resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}
