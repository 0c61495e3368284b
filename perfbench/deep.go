package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/lang"
)

// deepAnalyzeEvery is how many searches deep-search runs between two
// cold analyses: three a round of 45.
const deepAnalyzeEvery = 15

// deepRSSAt is the count of reproductions after which deep-search
// reads its peak resident set: 30 rounds, about a third of a 20-s run.
const deepRSSAt = 30 * 45

// deepBudget is deep-search's trial budget in every mode: large enough
// that plain CHESS finds apache-2, the hardest curated bug (9442
// tries).
const deepBudget = 20_000

// searchModes are the paper's three Table 4 search configurations.
var searchModes = []struct {
	name string
	opts []heisendump.Option
}{
	{"chess", []heisendump.Option{heisendump.WithPlainChess(true)}},
	{"chessX+dep", []heisendump.Option{heisendump.WithHeuristic(heisendump.Dependence)}},
	{"chessX+temp", []heisendump.Option{heisendump.WithHeuristic(heisendump.Temporal)}},
}

// deepItem is one (curated workload, search mode) pair.
type deepItem struct {
	w     *heisendump.Workload
	mode  string
	opts  []heisendump.Option
	truth *gen.Program // ground truth of a gen-* workload; nil for a Table 2 bug
}

func (it deepItem) label() string { return it.w.Name + "/" + it.mode }

// curated returns the 7 Table 2 bugs and the 8 generated workloads,
// each generated one paired with its generator ground truth.
func curated() ([]*heisendump.Workload, map[string]*gen.Program, error) {
	ws := append(heisendump.Bugs(), heisendump.GeneratedWorkloads()...)
	truth := map[string]*gen.Program{}
	for _, w := range heisendump.GeneratedWorkloads() {
		seed, err := strconv.ParseInt(strings.TrimPrefix(w.BugID, "gen-"), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %s: bug id %q: %w", w.Name, w.BugID, err)
		}
		p := gen.Generate(seed)
		if p.Source != w.Source {
			return nil, nil, fmt.Errorf("workload %s differs from gen.Generate(%d)", w.Name, seed)
		}
		truth[w.Name] = p
	}
	return ws, truth, nil
}

// runDeep is deep-search: the 15 curated workloads under the three
// search modes, in whole rounds over cached programs, each search on
// one worker (see procs: a wider pool on one P only interleaves). The
// seed fixes the order of the items in each round. Every result must be
// found, identical in every round, and identical to a reference
// computed after the timed phase on a pool of one worker per CPU (at
// least two), so that the determinism contract is still checked
// across worker counts.
func runDeep(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	const workers = 1
	refWorkers := max(2, runtime.NumCPU())
	var items []deepItem
	var ws []*heisendump.Workload
	var truth map[string]*gen.Program
	var asts []*lang.Program
	err := timeSetup(o, nil, func() error {
		var err error
		if ws, truth, err = curated(); err != nil {
			return err
		}
		items, asts = items[:0], asts[:0]
		for _, w := range ws {
			if _, err := heisendump.Compile(w.Source); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			ast, err := heisendump.Parse(w.Source)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			asts = append(asts, ast)
			for _, m := range searchModes {
				items = append(items, deepItem{w: w, mode: m.name, opts: m.opts, truth: truth[w.Name]})
			}
		}
		// One unchecked warm-up round.
		for _, it := range items {
			deepRepro(ctx, nil, 0, it, workers)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type op struct {
		item    int
		fp      fingerprint
		latency float64
		failed  bool
	}
	var ops []op
	var tt traceTally
	tr := beginTrace(cfg.trace)
	rec := tr.recorder()
	order := rand.New(rand.NewSource(cfg.seed))
	analyzed := 0
	m := newMeter(deepRSSAt)
	for round := 0; round == 0 || cfg.more(m, len(ops)); round++ {
		// A new seeded order every round, so that no item keeps the
		// same predecessor, and with it the same heap and cache state,
		// through a whole run.
		for j, i := range order.Perm(len(items)) {
			// After every deepAnalyzeEvery items, one cold static
			// analysis of the next curated program in turn: the
			// analyses are spread over the phase, every program weighs
			// the same in analyze_p50_ms, and the analyzer's memo, which
			// never forgets a program, grows by a few programs a round.
			if j%deepAnalyzeEvery == deepAnalyzeEvery-1 {
				k := analyzed % len(ws)
				analyzed++
				o.attempted++
				d, err := analyzeFresh(rec, &tt, -analyzed, asts[k], truth[ws[k].Name])
				if err != nil {
					o.failOp("analyze "+ws[k].Name, err)
				} else {
					o.analyze = append(o.analyze, ms(d))
				}
			}
			it := items[i]
			out := deepRepro(ctx, rec, len(ops)+1, it, workers)
			x := op{item: i, fp: out.fingerprint(), latency: ms(out.latency)}
			if err := checkDeep(out, it); err != nil {
				x.failed = true
				o.failOp(it.label(), err)
			} else {
				tt.addRepro(out)
				m.done()
			}
			ops = append(ops, x)
		}
	}
	o.attempted += len(ops)
	o.phase, o.windows, o.rss = m.stop()
	tr.finish(o, &tt)

	// The determinism contract: every round, and any worker count, gives
	// the pool reference's Found, Tries and Schedule.
	ref := make([]fingerprint, len(items))
	for i, it := range items {
		ref[i] = deepRepro(ctx, nil, 0, it, refWorkers).fingerprint()
	}
	for _, x := range ops {
		if !x.failed && x.fp != ref[x.item] {
			x.failed = true
			o.failOp(items[x.item].label(), fmt.Errorf("result %+v differs from the %d-worker reference %+v", x.fp, refWorkers, ref[x.item]))
		}
		if !x.failed {
			o.latency = append(o.latency, x.latency)
		}
	}
	o.phase.repros = len(o.latency)
	// All three modes of a workload reproduce the same failure.
	sig := map[string]string{}
	for i, it := range items {
		s := ref[i].reason + "@" + ref[i].pc
		if prev, ok := sig[it.w.Name]; ok && prev != s {
			o.breakRun("%s: modes reproduce different failures (%s, %s)", it.w.Name, prev, s)
		}
		sig[it.w.Name] = s
	}
	return o, nil
}

// deepRepro reproduces one item on a search pool of the given width.
func deepRepro(ctx context.Context, rec *recorder, id int, it deepItem, workers int) reproOut {
	opts := append([]heisendump.Option{heisendump.WithWorkers(workers), heisendump.WithTrialBudget(deepBudget)}, it.opts...)
	return reproduce(ctx, rec, id, 1, it.w.Source, it.w.Input, false, opts...)
}

// checkDeep requires a found schedule, and for a generated workload
// the generator's seeded failure.
func checkDeep(out reproOut, it deepItem) error {
	if it.truth != nil {
		return checkFailure(out, it.truth, bound)
	}
	return checkFound(out, bound)
}

// analyzeFresh lowers a parsed curated program afresh, bypassing the
// compile cache, and times the static analysis of that new program:
// Analyze memoizes per program, and every cached program's analysis
// was done at set-up. For a generated workload it checks the report
// against the injected racy variables.
func analyzeFresh(rec *recorder, tt *traceTally, id int, ast *lang.Program, truth *gen.Program) (time.Duration, error) {
	prog, err := heisendump.CompileAST(ast, true)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sp := rec.begin(spanAnalyze, id, 0, 1)
	r := heisendump.Analyze(prog)
	rec.end(sp)
	d := time.Since(t0)
	tt.analyzed++
	tt.races += int64(len(r.Races))
	if truth != nil {
		return d, checkRacy(racyFlagged(r), truth)
	}
	return d, nil
}
