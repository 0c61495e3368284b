package main

import (
	"context"
	"fmt"
	"time"

	"heisendump"
	"heisendump/internal/gen"
)

// Span names of the in-process layers, one per public call.
const (
	spanRepro       = "repro"
	spanCompile     = "progcache.compile"
	spanAnalyze     = "statics.analyze"
	spanSession     = "ctrldep.session"
	spanProvoke     = "sched.provoke"
	spanAlign       = "index.align"
	spanAlignedDump = "coredump.aligned_dump"
	spanDiff        = "coredump.diff"
	spanPrioritize  = "slicing.prioritize"
	spanCandidates  = "chess.candidates"
	spanSearch      = "chess.search"
)

// stageSpans names the analysis stages in execution order.
var stageSpans = []struct {
	stage heisendump.Stage
	name  string
}{
	{heisendump.StageAlign, spanAlign},
	{heisendump.StageAlignedDump, spanAlignedDump},
	{heisendump.StageDiff, spanDiff},
	{heisendump.StagePrioritize, spanPrioritize},
	{heisendump.StageCandidates, spanCandidates},
}

// reproOut is one in-process reproduction: what the public calls
// returned and how long the caller waited.
type reproOut struct {
	prog     *heisendump.Program
	static   *heisendump.StaticReport
	failure  *heisendump.FailureReport
	analysis *heisendump.AnalysisReport
	search   *heisendump.SearchResult
	err      error
	latency  time.Duration // Compile through the finished report
	analyze  time.Duration // the Analyze call alone
}

// reproduce runs one reproduction through the public surface: Compile,
// Analyze (when static is set), NewCompiled, then Reproduce. With a
// recorder it times each call, and runs Reproduce as its staged
// equivalent (ProvokeFailure, one ThroughContext per analysis stage,
// Search) so each layer gets its own span.
func reproduce(ctx context.Context, rec *recorder, id, tid int, source string, input *heisendump.Input, static bool, opts ...heisendump.Option) (out reproOut) {
	t0 := time.Now()
	root := rec.begin(spanRepro, id, 0, tid)
	defer func() {
		out.latency = time.Since(t0)
		rec.end(root)
	}()

	sp := rec.begin(spanCompile, id, root, tid)
	prog, err := heisendump.Compile(source)
	rec.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	out.prog = prog

	if static {
		a0 := time.Now()
		sp = rec.begin(spanAnalyze, id, root, tid)
		out.static = heisendump.Analyze(prog)
		rec.end(sp)
		out.analyze = time.Since(a0)
	}

	sp = rec.begin(spanSession, id, root, tid)
	sess := heisendump.NewCompiled(prog, input, opts...)
	rec.end(sp)

	if rec == nil {
		rep, err := sess.Reproduce(ctx)
		if rep != nil {
			out.failure, out.analysis, out.search = rep.Failure, rep.Analysis, rep.Search
		}
		out.err = err
		return out
	}

	sp = rec.begin(spanProvoke, id, root, tid)
	out.failure, err = sess.ProvokeFailure(ctx)
	rec.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	an := sess.NewAnalysis(out.failure)
	for _, st := range stageSpans {
		sp = rec.begin(st.name, id, root, tid)
		err = an.ThroughContext(ctx, st.stage)
		rec.end(sp)
		if err != nil {
			out.err = err
			return out
		}
	}
	out.analysis = an.Report
	sp = rec.begin(spanSearch, id, root, tid)
	out.search, out.err = sess.Search(ctx, out.failure, an.Report)
	rec.end(sp)
	return out
}

// fingerprint is the deterministic part of a reproduction's result.
type fingerprint struct {
	found    bool
	tries    int
	schedule string
	reason   string
	pc       string
}

func (o reproOut) fingerprint() fingerprint {
	var f fingerprint
	if o.search != nil {
		f.found, f.tries, f.schedule = o.search.Found, o.search.Tries, o.search.ScheduleString()
	}
	if o.failure != nil {
		f.reason, f.pc = o.failure.Signature.Reason, o.failure.Signature.PC.String()
	}
	return f
}

// checkFound requires a completed reproduction with a schedule of at
// most bound preemptions.
func checkFound(o reproOut, bound int) error {
	if o.err != nil {
		return o.err
	}
	if o.search == nil || !o.search.Found {
		return fmt.Errorf("not reproduced")
	}
	if n := len(o.search.Schedule); n > bound {
		return fmt.Errorf("schedule has %d preemptions, bound is %d", n, bound)
	}
	return nil
}

// checkTruth compares a reproduction of a generated program against
// the generator's ground truth, which is computed apart from the
// pipeline: the failure is the seeded assert in the seeded function,
// and the static analyzer flags every injected racy variable.
func checkTruth(o reproOut, p *gen.Program, bound int) error {
	if err := checkFailure(o, p, bound); err != nil {
		return err
	}
	return checkRacy(racyFlagged(o.static), p)
}

// checkFailure requires a found schedule for the seeded failure: the
// seeded assert's reason, in the seeded function.
func checkFailure(o reproOut, p *gen.Program, bound int) error {
	if err := checkFound(o, bound); err != nil {
		return err
	}
	if got := o.failure.Signature.Reason; got != p.Reason {
		return fmt.Errorf("failure reason %q, want %q", got, p.Reason)
	}
	if got := o.prog.FuncOf(o.failure.Signature.PC).Name; got != p.SiteFunc {
		return fmt.Errorf("failure in %s, want %s", got, p.SiteFunc)
	}
	return nil
}

// racyFlagged lists the variables a static report flags.
func racyFlagged(r *heisendump.StaticReport) []string {
	var out []string
	for _, rc := range r.Races {
		out = append(out, rc.Var)
	}
	return out
}

// checkRacy requires the variables a static report flags to include
// every ground-truth racy variable of p.
func checkRacy(flagged []string, p *gen.Program) error {
	set := make(map[string]bool, len(flagged))
	for _, v := range flagged {
		set[v] = true
	}
	for _, v := range p.RacyVars() {
		if !set[v] {
			return fmt.Errorf("static analysis misses racy variable %s", v)
		}
	}
	return nil
}

// tally accumulates the counts public results carry, for the
// per-layer metrics. Pruned trials and saved steps come only from
// heisend's job reports: the in-process workloads never turn prune or
// fork on.
type tally struct {
	repros         int
	stressAttempts int64
	dumpBytes      int64
	passingSteps   int64
	csvs           int64
	candidates     int64
	tries          int64
	combos         int64
	trialsExecuted int64
	trialsPruned   int64
	stepsExecuted  int64
	stepsSaved     int64
	analyzed       int64
	races          int64
}

func (t *tally) addRepro(o reproOut) {
	t.repros++
	if o.static != nil {
		t.analyzed++
		t.races += int64(len(o.static.Races))
	}
	if f := o.failure; f != nil {
		t.stressAttempts += int64(f.Attempts)
		t.dumpBytes += int64(f.DumpBytes)
	}
	if a := o.analysis; a != nil {
		t.passingSteps += a.PassingSteps
		t.csvs += int64(len(a.CSVs))
		t.candidates += int64(len(a.Candidates))
	}
	if s := o.search; s != nil {
		t.tries += int64(s.Tries)
		t.combos += int64(s.CombinationsGenerated)
		t.trialsExecuted += int64(s.TrialsExecuted)
		t.stepsExecuted += s.StepsExecuted
	}
}
