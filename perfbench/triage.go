package main

import (
	"context"

	"heisendump"
	"heisendump/internal/gen"
)

const (
	// bound is the preemption bound every reproduction runs with (the
	// Session default).
	bound = 2

	// triagePrograms is the length of corpus-triage's program list. It
	// is well past the shared compile cache's 256 entries, so that in
	// the second and later passes every program has been evicted again
	// and each reproduction stays cold.
	triagePrograms = 4000
	// triageBlock is corpus-triage's round: a run stops at the first
	// block boundary after its time is up. The list is walked
	// cyclically, block by block. A block, not the whole list, keeps
	// the number of reproductions in a run, and with it the memory the
	// run retains, a smooth function of speed.
	triageBlock = 100
	// triageRSSAt is the count of reproductions after which
	// corpus-triage reads its peak resident set: one pass of the list.
	// The statics memo keeps every program analyzed, so the process
	// grows with the work done; read at a fixed count, the figure does
	// not follow the host's speed.
	triageRSSAt = triagePrograms
	// triageWarmup is how many programs, outside the list, each set-up
	// reproduces to bring the heap to its steady state.
	triageWarmup = 32
	// seedStride separates the program seeds of consecutive --seed
	// values.
	seedStride = 10_000
)

// triageSeed is the generator seed of program i of the list for a
// benchmark seed; the warm-up programs follow the list.
func triageSeed(seed int64, i int) int64 { return seed*seedStride + int64(i) }

// runTriage is corpus-triage: a list of distinct generated programs,
// each reproduced cold in-process with Compile, Analyze,
// NewCompiled(WithWorkers(1)) and Reproduce, walking the list in
// blocks. Every reproduction is checked against the generator's ground
// truth.
func runTriage(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	var progs []*gen.Program
	rep := 0
	drop := func() error { progs = nil; return nil }
	err := timeSetup(o, drop, func() error {
		progs = make([]*gen.Program, triagePrograms)
		for i := range progs {
			progs[i] = gen.Generate(triageSeed(cfg.inputSeed(), i))
		}
		// Distinct warm-up programs per set-up, so that each set-up
		// does the same cold work. Their results are not checked:
		// they are not part of the measured list.
		for i := 0; i < triageWarmup; i++ {
			p := gen.Generate(triageSeed(cfg.inputSeed(), triagePrograms+rep*triageWarmup+i))
			reproduce(ctx, nil, 0, 0, p.Source, p.Input, true, heisendump.WithWorkers(1))
		}
		rep++
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tt traceTally
	tr := beginTrace(cfg.trace)
	rec := tr.recorder()
	m := newMeter(triageRSSAt)
	next := 0
	for round := 0; round == 0 || cfg.more(m, len(o.latency)); round++ {
		for _, p := range progs[next : next+triageBlock] {
			out := reproduce(ctx, rec, o.attempted+1, 1, p.Source, p.Input, true, heisendump.WithWorkers(1))
			o.attempted++
			if err := checkTruth(out, p, bound); err != nil {
				o.failOp(p.Name, err)
				continue
			}
			o.latency = append(o.latency, ms(out.latency))
			o.analyze = append(o.analyze, ms(out.analyze))
			tt.addRepro(out)
			m.done()
		}
		next = (next + triageBlock) % len(progs)
	}
	o.phase, o.windows, o.rss = m.stop()
	tr.finish(o, &tt)
	return o, nil
}
