package main

import (
	"fmt"
	"runtime"
	"time"

	"heisendump"
)

// Span names of the service-mix client calls and of the server-side
// intervals each job's status reports.
const (
	spanDevJob        = "dev.job"
	spanDevAnalyze    = "dev.analyze"
	spanDevQueueWait  = "server.dev.queue_wait"
	spanDevRun        = "server.dev.run"
	spanBulkBatch     = "bulk.batch"
	spanBulkWait      = "bulk.wait"
	spanBulkJob       = "bulk.job"
	spanBulkQueueWait = "server.bulk.queue_wait"
	spanBulkRun       = "server.bulk.run"
)

// layerMetric is one per-layer metric of a traced run. base names the
// denominator of a ratio.
type layerMetric struct {
	name  string
	value float64
	unit  string
	base  string
}

// traceTally is what a traced run counts besides its spans.
type traceTally struct {
	tally
	cacheLookups uint64 // shared compile cache lookups over the phase
	cacheHits    uint64
	mem0, mem1   runtime.MemStats // before and after the phase
	jobs         int              // service-mix: jobs completed
	jobCacheHits int              // jobs whose program came from the cache
	batchEntries int              // entries submitted through /v1/batch
}

// layerMetrics computes the per-layer metrics of a traced run from its
// spans and counts. A layer the workload does not reach through the
// calls it times reads 0.
func layerMetrics(spans []span, t *traceTally, ph phase, windows []phase) []layerMetric {
	agg := aggregate(spans)
	get := func(name string) *layerTime {
		if lt := agg[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	n := float64(max(ph.repros, 1))
	perRepro := func(name string) float64 { return ms(get(name).self) / n }
	p50 := func(name string) float64 { return median(get(name).durs) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	searchNs := float64(get(spanSearch).total)

	devQueueP99, ok := tailPercentile(get(spanDevQueueWait).durs, 0.99)
	if !ok {
		devQueueP99 = 0
	}
	batch := get(spanBulkBatch)

	lookups := float64(t.cacheLookups)
	trials := float64(t.trialsExecuted)
	return []layerMetric{
		{"progcache.compile_ms_p50", p50(spanCompile), "ms", ""},
		{"progcache.self_ms_per_repro", perRepro(spanCompile), "ms", ""},
		{"progcache.hit_ratio", ratio(float64(t.cacheHits), lookups), "ratio",
			fmt.Sprintf("%d hits / %d lookups", t.cacheHits, t.cacheLookups)},
		{"progcache.lookups", lookups, "count", ""},
		{"ctrldep.session_ms_per_repro", perRepro(spanSession), "ms", ""},
		{"statics.analyze_ms_p50", p50(spanAnalyze), "ms", ""},
		{"statics.races_per_program", ratio(float64(t.races), float64(t.analyzed)), "count",
			fmt.Sprintf("%d races / %d analyses", t.races, t.analyzed)},
		{"sched.provoke_ms_per_repro", perRepro(spanProvoke), "ms", ""},
		{"sched.stress_attempts_per_repro", float64(t.stressAttempts) / n, "count", ""},
		{"coredump.dump_kb", ratio(float64(t.dumpBytes)/1024, float64(t.repros)), "KiB", ""},
		{"index.align_ms_per_repro", perRepro(spanAlign), "ms", ""},
		{"index.passing_steps_per_repro", float64(t.passingSteps) / n, "count", ""},
		{"coredump.aligned_dump_ms_per_repro", perRepro(spanAlignedDump), "ms", ""},
		{"coredump.diff_ms_per_repro", perRepro(spanDiff), "ms", ""},
		{"coredump.csvs_per_repro", float64(t.csvs) / n, "count", ""},
		{"slicing.prioritize_ms_per_repro", perRepro(spanPrioritize), "ms", ""},
		{"chess.candidates_ms_per_repro", perRepro(spanCandidates), "ms", ""},
		{"chess.candidates_per_repro", float64(t.candidates) / n, "count", ""},
		{"chess.search_ms_per_repro", perRepro(spanSearch), "ms", ""},
		{"chess.search_ms_p50", p50(spanSearch), "ms", ""},
		{"chess.tries_per_repro", float64(t.tries) / n, "count", ""},
		{"chess.combos_per_repro", float64(t.combos) / n, "count", ""},
		{"interp.steps_per_repro", float64(t.stepsExecuted) / n, "count", ""},
		{"interp.search_ns_per_step", ratio(searchNs, float64(t.stepsExecuted)), "ns",
			fmt.Sprintf("search wall time / %d steps executed", t.stepsExecuted)},
		{"chess.trials_executed_per_repro", trials / n, "count", ""},
		{"chess.useful_trial_ratio", ratio(float64(t.tries), trials), "ratio",
			fmt.Sprintf("%d tries / %d trials executed", t.tries, t.trialsExecuted)},
		{"chess.trials_pruned_per_repro", float64(t.trialsPruned) / n, "count", ""},
		{"chess.steps_saved_per_repro", float64(t.stepsSaved) / n, "count", ""},
		{"server.roundtrip_ms_p50", p50(spanDevJob), "ms", ""},
		{"server.overhead_ms_p50", median(selfDurations(spans, spanDevJob)), "ms", ""},
		{"server.run_ms_p50", p50(spanDevRun), "ms", ""},
		{"server.batch_admit_ms_per_entry", ratio(ms(batch.total), float64(t.batchEntries)), "ms",
			fmt.Sprintf("%d batch entries", t.batchEntries)},
		{"server.cache_hit_ratio", ratio(float64(t.jobCacheHits), float64(t.jobs)), "ratio",
			fmt.Sprintf("%d cache hits / %d jobs", t.jobCacheHits, t.jobs)},
		{"server.jobs", float64(t.jobs), "count", ""},
		{"server.bulk.queue_wait_ms_p50", p50(spanBulkQueueWait), "ms", ""},
		{"server.bulk.queue_busy_share", ratio(float64(covered(spans, spanBulkQueueWait)), float64(ph.elapsed)), "ratio",
			"time some bulk job waited queued / timed phase"},
		{"server.dev.queue_wait_ms_p99", devQueueP99, "ms",
			fmt.Sprintf("%d dev jobs; 0 below %d", len(get(spanDevQueueWait).durs), 100*minTail)},
		{"runtime.alloc_mb_per_repro", float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20) / n, "MiB", ""},
		{"runtime.gc_cycles_per_repro", float64(t.mem1.NumGC-t.mem0.NumGC) / n, "count", ""},
		{"traced.repro_per_s", windowMedian(ph, windows, phase.perSecond), "1/s", "against repro_per_s untraced: the tracing overhead"},
		{"traced.repros", float64(ph.repros), "count", "base of every per_repro metric"},
	}
}

// covered is the time during which at least one span of the name is
// open.
func covered(spans []span, name string) time.Duration {
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.name == name {
			iv = append(iv, [2]time.Duration{s.start, s.end})
		}
	}
	return unionLen(iv)
}

// selfDurations returns the self times, in ms, of the spans of one
// name.
func selfDurations(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// traceRun is a traced run's recorder plus the readings taken when its
// timed phase began. A nil *traceRun is an untraced run.
type traceRun struct {
	rec  *recorder
	mem0 runtime.MemStats
	cs0  heisendump.CacheStats
}

func beginTrace(on bool) *traceRun {
	if !on {
		return nil
	}
	return &traceRun{rec: newRecorder(), mem0: memAt(), cs0: heisendump.CompileCacheStats()}
}

// recorder is the run's span recorder; nil when untraced.
func (tr *traceRun) recorder() *recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// finish takes the end-of-phase readings and computes the per-layer
// metrics; o.phase and o.windows must be set.
func (tr *traceRun) finish(o *outcome, tt *traceTally) {
	if tr == nil {
		return
	}
	tt.mem0, tt.mem1 = tr.mem0, memAt()
	cs1 := heisendump.CompileCacheStats()
	tt.cacheHits = cs1.Hits - tr.cs0.Hits
	tt.cacheLookups = tt.cacheHits + cs1.Misses - tr.cs0.Misses
	o.rec = tr.rec
	o.layers = layerMetrics(tr.rec.snapshot(), tt, o.phase, o.windows)
}

func memAt() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
