package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/server"
)

const (
	// serviceWorkers is heisend's job worker count: one per CPU of the
	// reference machine; each job's own search runs on one worker. With
	// procs at 1 the two workers are concurrent, not parallel.
	serviceWorkers = 2
	// bulkBatch is how many fresh corpus entries the fuzz tenant posts
	// per /v1/batch request before it waits on them; it is its round.
	// It is one whole tenant queue: heisend's default QueueDepth (64),
	// the most of a cmd/fuzz corpus (100 entries by default) that one
	// request can have admitted without being shed. The tenant's one
	// connection feeds the queue more slowly than two workers drain
	// it (admission compiles each entry), so the bulk backlog is empty
	// for part of each round; server.bulk.queue_busy_share, in a traced
	// run, is the share of the timed phase during which some bulk job
	// is queued.
	bulkBatch = 64
	// Budgets of every job, sent explicitly so that the in-process
	// reference runs under the same ones (the oracle's budgets).
	jobTrialBudget  = 3000
	jobStressBudget = 6000
	// devJobsPerRound is the dev tenant's round: each curated workload
	// once under each of the four prune/fork option sets, with one
	// /v1/analyze request after every devAnalyzeEvery jobs (so one dev
	// request in five is an analyze).
	devJobsPerRound = 60
	devAnalyzeEvery = 4
	// serviceRSSAt is the count of finished jobs after which
	// service-mix reads its peak resident set, about a third of a 20-s
	// run. The results store keeps every job for 15 minutes, so the
	// process grows with the jobs done; read at a fixed count, the
	// figure does not follow the host's speed.
	serviceRSSAt = 2000
	// Fresh programs pre-generated per second of the timed phase, well
	// above the rates the tenants reach; past the pool a tenant
	// generates on demand, and the run says so.
	bulkPoolPerSecond    = 600
	analyzePoolPerSecond = 60
)

type devOption struct {
	name        string
	prune, fork bool
}

// devOptions are the dev tenant's option sets, spread evenly over its
// jobs. The layers they select are requested only through the job
// options, which the server decodes ignoring unknown fields.
var devOptions = []devOption{
	{"none", false, false},
	{"prune", true, false},
	{"fork", false, true},
	{"prune+fork", true, true},
}

// Program seeds of service-mix for benchmark seed s are
// s*serviceStride plus an offset per use, so that every program a run
// sends is fresh.
const (
	serviceStride = 10_000_000
	bulkOffset    = 1_000_000
	analyzeOffset = 2_000_000
	warmOffset    = 3_000_000
)

// pool hands out fresh inputs made from consecutive generator seeds:
// made during set-up, then on demand.
type pool[T any] struct {
	first  int64
	mk     func(seed int64) T
	items  []T
	next   int
	extras int // handed out past the set-up part
}

func newPool[T any](first int64, n int, mk func(int64) T) *pool[T] {
	p := &pool[T]{first: first, mk: mk, items: make([]T, n)}
	for i := range p.items {
		p.items[i] = mk(first + int64(i))
	}
	return p
}

func (p *pool[T]) take() T {
	i := p.next
	p.next++
	if i < len(p.items) {
		v := p.items[i]
		var zero T
		p.items[i] = zero // the input is used once; let it go
		return v
	}
	p.extras++
	return p.mk(p.first + int64(i))
}

// bulkEntry is one fresh program as a /v1/batch corpus line, with the
// ground truth its job is checked against.
type bulkEntry struct {
	line   []byte
	name   string
	reason string
}

func newBulkEntry(seed int64) bulkEntry {
	p := gen.Generate(seed)
	line, _ := json.Marshal(gen.Entry{ // a struct of strings and numbers always encodes
		Seed: p.Seed, Name: p.Name, Kind: p.Kind.String(), Threads: p.Threads,
		Source: p.Source, Reason: p.Reason, SiteFunc: p.SiteFunc,
		TrialBudget: jobTrialBudget, StressBudget: jobStressBudget,
	})
	return bulkEntry{line: append(line, '\n'), name: p.Name, reason: p.Reason}
}

// serviceEnv is heisend served in-process on a loopback listener, with
// one client (and so one connection) per tenant.
type serviceEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	dev    *http.Client
	fuzz   *http.Client
}

func startService() (*serviceEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{
		srv:    server.New(server.Config{Workers: serviceWorkers}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dev:    newClient(),
		fuzz:   newClient(),
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// close stops the listener and the job workers and waits for both.
func (e *serviceEnv) close() error {
	e.dev.CloseIdleConnections()
	e.fuzz.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	e.srv.Shutdown()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// call sends one request and decodes a 200 response's JSON body into
// out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// tenant is one tenant's share of a service-mix run.
type tenant struct {
	o  outcome
	tt traceTally
	m  *meter // shared by both tenants; nil during set-up
}

// devOp is one dev job, kept for the check against the in-process
// reference.
type devOp struct {
	w      int
	report *jobReport
}

// runService is service-mix: heisend with two job workers, driven
// closed-loop by two tenants over one connection each. fuzz posts
// fresh generated corpus entries through /v1/batch and waits on each
// job; dev sends POST /v1/jobs?wait=1 for the curated workloads under
// four option sets, and every fifth request POST /v1/analyze on a
// fresh generated program.
func runService(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	ws, _, err := curated()
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(ws))
	base := cfg.inputSeed() * serviceStride

	var env *serviceEnv
	var bulk *pool[bulkEntry]
	var analyze *pool[*gen.Program]
	rep := 0
	closeEnv := func() error {
		if env == nil {
			return nil
		}
		err := env.close()
		env = nil
		return err
	}
	reset := func() error {
		bulk, analyze = nil, nil
		return closeEnv()
	}
	err = timeSetup(o, reset, func() error {
		var err error
		bulk = newPool(base+bulkOffset, int(cfg.seconds*bulkPoolPerSecond)+bulkBatch, newBulkEntry)
		analyze = newPool(base+analyzeOffset, int(cfg.seconds*analyzePoolPerSecond)+1, gen.Generate)
		if env, err = startService(); err != nil {
			return err
		}
		// Warm-up: every curated program into the compile cache, one
		// bulk batch and one analyze request of programs outside the
		// pools. Unchecked.
		warm := base + warmOffset + int64(rep*(bulkBatch+1))
		rep++
		var scratch tenant
		for i := range ws {
			devJob(env, nil, &scratch, 0, ws[i], devOptions[0])
		}
		fuzzBatch(env, nil, &scratch, 0, newPool(warm, bulkBatch, newBulkEntry))
		devAnalyze(env, nil, &scratch, 0, gen.Generate(warm+bulkBatch))
		return nil
	})
	if err != nil {
		closeEnv()
		return nil, err
	}

	var devOps []devOp
	tr := beginTrace(cfg.trace)
	rec := tr.recorder()
	m := newMeter(serviceRSSAt)
	dev, fuzz := tenant{m: m}, tenant{m: m}
	var devDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The bulk load lasts as long as the dev tenant measures.
		id := 1 << 30 // fuzz ids, apart from dev's
		for round := 0; round == 0 || !devDone.Load(); round++ {
			id = fuzzBatch(env, rec, &fuzz, id, bulk)
		}
	}()
	go func() {
		defer wg.Done()
		defer devDone.Store(true)
		id := 0
		for round := 0; round == 0 || cfg.more(m, len(dev.o.latency)); round++ {
			for k := 0; k < devJobsPerRound; k++ {
				w, opt := order[k%len(ws)], devOptions[(k/len(ws))%len(devOptions)]
				id++
				if r := devJob(env, rec, &dev, id, ws[w], opt); r != nil {
					devOps = append(devOps, devOp{w: w, report: r})
				}
				if (k+1)%devAnalyzeEvery == 0 {
					id++
					devAnalyze(env, rec, &dev, id, analyze.take())
				}
			}
		}
	}()
	wg.Wait()
	o.phase, o.windows, o.rss = m.stop()
	if n := bulk.extras + analyze.extras; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d programs were generated during the timed phase, past the pre-generated pools\n", n)
	}

	for _, t := range []*tenant{&dev, &fuzz} {
		o.attempted += t.o.attempted
		o.failed += t.o.failed
		o.broken += t.o.broken
	}
	o.latency, o.analyze = dev.o.latency, dev.o.analyze

	tt := dev.tt
	tt.add(fuzz.tt)
	tr.finish(o, &tt)
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("stopping heisend: %w", err)
	}

	// Each dev job must match an in-process Session run of the same
	// program without prune or fork.
	ref := make([]fingerprint, len(ws))
	for i, w := range ws {
		prog, err := heisendump.Compile(w.Source)
		if err != nil {
			return nil, err
		}
		r, err := heisendump.NewCompiled(prog, w.Input,
			heisendump.WithWorkers(1),
			heisendump.WithTrialBudget(jobTrialBudget),
			heisendump.WithStressBudget(jobStressBudget),
		).Reproduce(ctx)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", w.Name, err)
		}
		ref[i] = fingerprint{found: r.Search.Found, tries: r.Search.Tries, schedule: r.Search.ScheduleString()}
	}
	for _, d := range devOps {
		got := fingerprint{found: d.report.Found, tries: d.report.Tries, schedule: d.report.Schedule}
		if got != ref[d.w] {
			o.failOp("dev "+ws[d.w].Name, fmt.Errorf("job %+v differs from the in-process reference %+v", got, ref[d.w]))
			o.phase.repros--
		}
	}
	return o, nil
}

// The wire types are the benchmark's own reading of heisend's JSON
// API: they name only the fields it uses, JSON decoding skips the
// rest, and the server ignores request fields it does not know. Prune
// and fork are requested by name on the wire alone, so the workload
// runs unchanged whether those layers are kept or deleted.
type (
	jobRequest struct {
		Tenant  string     `json:"tenant"`
		Source  string     `json:"source"`
		Input   *inputSpec `json:"input,omitempty"`
		Options jobOptions `json:"options"`
	}
	inputSpec struct {
		Scalars map[string]int64   `json:"scalars,omitempty"`
		Arrays  map[string][]int64 `json:"arrays,omitempty"`
	}
	jobOptions struct {
		Workers      int  `json:"workers"`
		Prune        bool `json:"prune,omitempty"`
		Fork         bool `json:"fork,omitempty"`
		TrialBudget  int  `json:"trial_budget"`
		StressBudget int  `json:"stress_budget"`
	}
	jobStatus struct {
		ID          string          `json:"id"`
		State       string          `json:"state"`
		CacheHit    bool            `json:"cache_hit"`
		SubmittedAt time.Time       `json:"submitted_at"`
		StartedAt   *time.Time      `json:"started_at"`
		FinishedAt  *time.Time      `json:"finished_at"`
		Report      *jobReport      `json:"report"`
		Error       json.RawMessage `json:"error"`
	}
	jobReport struct {
		Outcome        string `json:"outcome"`
		Found          bool   `json:"found"`
		Tries          int    `json:"tries"`
		Schedule       string `json:"schedule"`
		TrialsExecuted int    `json:"trials_executed"`
		TrialsPruned   int    `json:"trials_pruned"`
		StepsExecuted  int64  `json:"steps_executed"`
		StepsSaved     int64  `json:"steps_saved"`
		StressAttempts int    `json:"stress_attempts"`
		FailureReason  string `json:"failure_reason"`
		CSVs           int    `json:"csvs"`
	}
	analyzeResponse struct {
		Report struct {
			Races []struct {
				Var string `json:"var"`
			} `json:"races"`
		} `json:"report"`
	}
	batchResponse struct {
		Results []struct {
			ID    string          `json:"id"`
			Dup   bool            `json:"dup"`
			Error json.RawMessage `json:"error"`
		} `json:"results"`
	}
)

// devJob posts one curated workload as a dev job and waits for its
// report. It returns the report of a job that passed its checks.
func devJob(e *serviceEnv, rec *recorder, t *tenant, id int, w *heisendump.Workload, opt devOption) *jobReport {
	req := jobRequest{
		Tenant: "dev",
		Source: w.Source,
		Options: jobOptions{
			Workers: 1, Prune: opt.prune, Fork: opt.fork,
			TrialBudget: jobTrialBudget, StressBudget: jobStressBudget,
		},
	}
	if w.Input != nil {
		req.Input = &inputSpec{Scalars: w.Input.Scalars, Arrays: w.Input.Arrays}
	}
	body, _ := json.Marshal(req) // strings, numbers and integer maps always encode
	t.o.attempted++
	t0 := time.Now()
	sp := rec.begin(spanDevJob, id, 0, 1)
	var st jobStatus
	err := call(e.dev, http.MethodPost, e.base+"/v1/jobs?wait=1", body, &st)
	rec.end(sp)
	lat := sinceMs(t0)
	if err == nil {
		err = checkJob(&st)
	}
	if err != nil {
		t.o.failOp("dev "+w.Name+"/"+opt.name, err)
		return nil
	}
	rec.add(spanDevQueueWait, id, sp, 1, st.SubmittedAt, *st.StartedAt)
	rec.add(spanDevRun, id, sp, 1, *st.StartedAt, *st.FinishedAt)
	t.o.latency = append(t.o.latency, lat)
	t.tt.addJob(&st)
	t.m.done()
	return st.Report
}

// devAnalyze posts one fresh generated program to /v1/analyze and
// checks that the report flags its ground-truth racy variables.
func devAnalyze(e *serviceEnv, rec *recorder, t *tenant, id int, p *gen.Program) {
	body, _ := json.Marshal(struct { // a string always encodes
		Source string `json:"source"`
	}{p.Source})
	t.o.attempted++
	t0 := time.Now()
	sp := rec.begin(spanDevAnalyze, id, 0, 1)
	var resp analyzeResponse
	err := call(e.dev, http.MethodPost, e.base+"/v1/analyze", body, &resp)
	rec.end(sp)
	lat := sinceMs(t0)
	if err == nil {
		var flagged []string
		for _, r := range resp.Report.Races {
			flagged = append(flagged, r.Var)
		}
		err = checkRacy(flagged, p)
	}
	if err != nil {
		t.o.failOp("analyze "+p.Name, err)
		return
	}
	t.o.analyze = append(t.o.analyze, lat)
}

// fuzzBatch posts bulkBatch fresh corpus entries through /v1/batch,
// then waits on each job in turn and checks its failure against the
// entry's ground truth. It returns the next free span id.
func fuzzBatch(e *serviceEnv, rec *recorder, t *tenant, id int, bulk *pool[bulkEntry]) int {
	var body bytes.Buffer
	entries := make([]bulkEntry, bulkBatch)
	for i := range entries {
		entries[i] = bulk.take()
		body.Write(entries[i].line)
	}
	t.o.attempted += bulkBatch
	id++
	sp := rec.begin(spanBulkBatch, id, 0, 2)
	var br batchResponse
	err := call(e.fuzz, http.MethodPost, e.base+"/v1/batch?tenant=fuzz&workers=1", body.Bytes(), &br)
	rec.end(sp)
	if err == nil && len(br.Results) != bulkBatch {
		err = fmt.Errorf("batch of %d entries answered with %d results", bulkBatch, len(br.Results))
	}
	if err != nil {
		for range entries {
			t.o.failOp("bulk batch", err)
		}
		return id
	}
	t.tt.batchEntries += bulkBatch
	for i, r := range br.Results {
		id++
		if len(r.Error) > 0 || r.ID == "" || r.Dup {
			t.o.failOp("bulk "+entries[i].name, fmt.Errorf("not admitted: id %q dup %v error %s", r.ID, r.Dup, r.Error))
			continue
		}
		wsp := rec.begin(spanBulkWait, id, 0, 2)
		var st jobStatus
		err := call(e.fuzz, http.MethodGet, e.base+"/v1/jobs/"+r.ID+"?wait=1", nil, &st)
		rec.end(wsp)
		if err == nil {
			err = checkJob(&st)
		}
		if err == nil && st.Report.FailureReason != entries[i].reason {
			err = fmt.Errorf("failure reason %q, want %q", st.Report.FailureReason, entries[i].reason)
		}
		if err != nil {
			t.o.failOp("bulk "+entries[i].name, err)
			continue
		}
		tid := 10 + i // one viewer track per batch slot
		jsp := rec.add(spanBulkJob, id, 0, tid, st.SubmittedAt, *st.FinishedAt)
		rec.add(spanBulkQueueWait, id, jsp, tid, st.SubmittedAt, *st.StartedAt)
		rec.add(spanBulkRun, id, jsp, tid, *st.StartedAt, *st.FinishedAt)
		t.tt.addJob(&st)
		t.m.done()
	}
	return id
}

// checkJob requires a finished job that found its schedule.
func checkJob(st *jobStatus) error {
	if st.State != "done" || st.Report == nil || st.StartedAt == nil || st.FinishedAt == nil {
		return fmt.Errorf("job %s ended %s (error %s)", st.ID, st.State, st.Error)
	}
	if st.Report.Outcome != "found" || !st.Report.Found {
		return fmt.Errorf("job %s outcome %s", st.ID, st.Report.Outcome)
	}
	return nil
}

// addJob counts one finished job from its status.
func (t *traceTally) addJob(st *jobStatus) {
	t.jobs++
	t.repros++
	if st.CacheHit {
		t.jobCacheHits++
	}
	r := st.Report
	t.stressAttempts += int64(r.StressAttempts)
	t.csvs += int64(r.CSVs)
	t.tries += int64(r.Tries)
	t.trialsExecuted += int64(r.TrialsExecuted)
	t.trialsPruned += int64(r.TrialsPruned)
	t.stepsExecuted += r.StepsExecuted
	t.stepsSaved += r.StepsSaved
}

// add folds another tenant's counts into t.
func (t *traceTally) add(u traceTally) {
	t.jobs += u.jobs
	t.repros += u.repros
	t.jobCacheHits += u.jobCacheHits
	t.batchEntries += u.batchEntries
	t.stressAttempts += u.stressAttempts
	t.csvs += u.csvs
	t.tries += u.tries
	t.trialsExecuted += u.trialsExecuted
	t.trialsPruned += u.trialsPruned
	t.stepsExecuted += u.stepsExecuted
	t.stepsSaved += u.stepsSaved
}

// sinceMs is the time since t0 in fractional milliseconds.
func sinceMs(t0 time.Time) float64 { return ms(time.Since(t0)) }
