package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	loki "repro"
)

// procStats is a snapshot of the process-wide counters a repetition is
// charged with.
type procStats struct {
	cpu        time.Duration // user+system, all threads
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	gcCPU      float64 // runtime/metrics estimates, cpu-seconds
	allCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(cpuSamples)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		gcCPU:      cpuSamples[0].Value.Float64(),
		allCPU:     cpuSamples[1].Value.Float64(),
	}
}

// mode selects what a repetition turns on besides the workload itself.
type mode struct {
	traced  bool // WithMetrics + WithTracing
	metrics bool // WithMetrics only
	journal bool // journal even if the workload does not
	keep    bool // keep the journal for the caller to resume and remove
	resumes int  // times to time Resume over the journal afterwards
}

// repResult is one repetition: set-up, one Session.Run of the workload,
// and the costs charged to it.
type repResult struct {
	input      int
	journal    string // the kept journal directory
	n          int
	setup      time.Duration
	wall       time.Duration
	resumes    []float64 // seconds
	before     procStats
	after      procStats
	liveHeap   uint64
	accepted   int
	workers    int
	digest     string
	snap       snapshot
	journalLen int64
}

func (r *repResult) perExp(v float64) float64 { return v / float64(r.n) }

// bench is one benchmark invocation.
type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	work    string // working directory for journals and traces
	inputs  int    // inputs used so far
	nextDir int

	attempted, failed int
	problems          []string
	samples           map[string][]float64 // per-repetition values behind each median
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) tempDir(kind string) string {
	b.nextDir++
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", kind, b.nextDir))
}

// account checks a result's verdicts, charges executed experiments to
// attempted/failed (a resumed result re-reports journaled ones, so only
// its problems count), and returns the accepted count and the digest.
func (b *bench) account(res *loki.SessionResult, n int, what string, executed bool) (int, string) {
	accepted, failed, problems := b.w.verdicts(res, n)
	if executed {
		b.attempted += n
		b.failed += failed
	}
	for _, p := range problems {
		b.problem("%s: %s", what, p)
	}
	d, err := digest(res)
	if err != nil {
		b.problem("%s: digest: %v", what, err)
	}
	return accepted, d
}

// rep runs one repetition of the workload on the given input.
func (b *bench) rep(ctx context.Context, m mode, input int) (*repResult, error) {
	r := &repResult{input: input}
	var o openOpts
	if b.w.journaled || m.journal {
		o.journal = b.tempDir("journal")
		if m.keep {
			r.journal = o.journal
		} else {
			defer os.RemoveAll(o.journal)
		}
	}
	if m.traced {
		o.metrics = true
		o.traces = b.tempDir("traces")
		defer os.RemoveAll(o.traces)
	}
	o.metrics = o.metrics || m.metrics

	runtime.GC()
	start := time.Now()
	f, err := b.w.campaignFile(b.seed, input)
	if err != nil {
		return nil, err
	}
	rg, err := b.w.open(f, o)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer rg.close()
	r.setup = time.Since(start)
	r.n = experimentsOf(f)
	r.workers = f.Workers

	r.before = readProc()
	start = time.Now()
	res, err := rg.run(ctx, false)
	r.wall = time.Since(start)
	r.after = readProc()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(res)

	what := fmt.Sprintf("input %d", input)
	if m.traced {
		what += " traced"
	}
	r.accepted, r.digest = b.account(res, r.n, what, true)
	if o.metrics {
		r.snap = rg.snapshot()
	}
	rg.close()
	if o.journal != "" {
		if st, err := os.Stat(filepath.Join(o.journal, "checkpoint.jsonl")); err == nil {
			r.journalLen = st.Size()
		} else {
			b.problem("journal: %v", err)
		}
		for i := 0; i < m.resumes; i++ {
			d, err := b.resume(ctx, o.journal, input, r.digest)
			if err != nil {
				return nil, err
			}
			r.resumes = append(r.resumes, d.Seconds())
		}
	}
	return r, nil
}

// resume opens a fresh session on a finished journal and times
// Session.Resume. It must return the run's records, leave the journal
// byte-identical, and execute nothing: the session's metrics must show no
// runtime or analysis phase.
func (b *bench) resume(ctx context.Context, dir string, input int, want string) (time.Duration, error) {
	path := filepath.Join(dir, "checkpoint.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	f, err := b.w.campaignFile(b.seed, input)
	if err != nil {
		return 0, err
	}
	rg, err := b.w.open(f, openOpts{journal: dir, metrics: true})
	if err != nil {
		return 0, fmt.Errorf("open for resume: %w", err)
	}
	defer rg.close()
	runtime.GC()
	start := time.Now()
	res, err := rg.run(ctx, true)
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	what := fmt.Sprintf("input %d resume", input)
	if _, got := b.account(res, experimentsOf(f), what, false); got != want {
		b.problem("%s: records differ from the run's", what)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(before, after) {
		b.problem("%s: journal changed from %d to %d bytes", what, len(before), len(after))
	}
	snap := rg.snapshot()
	if n := snap.hist(`loki_experiment_phase_seconds{phase="run"}`).count + snap.hist(`loki_experiment_phase_seconds{phase="analyze"}`).count; n > 0 {
		b.problem("%s: executed %d experiment phases", what, n)
	}
	return d, nil
}

// loop runs rounds of repetitions, one per mode, until the deadline (at
// least min rounds). The repetitions of a round share one input.
func (b *bench) loop(ctx context.Context, d time.Duration, min int, modes ...mode) ([][]*repResult, error) {
	out := make([][]*repResult, len(modes))
	deadline := time.Now().Add(d)
	for round := 0; round < min || time.Now().Before(deadline); round++ {
		for k, m := range modes {
			r, err := b.rep(ctx, m, b.inputs)
			if err != nil {
				return nil, err
			}
			out[k] = append(out[k], r)
		}
		b.inputs++
	}
	return out, nil
}

// endToEnd is the untraced run: every end-to-end metric, each the median
// over the repetitions of one run.
func (b *bench) endToEnd(ctx context.Context) (map[string]metric, error) {
	plain := mode{}
	if b.w.journaled {
		plain.resumes = 1
	}
	// A workload whose measured Run keeps no journal resumes one written by
	// an extra, unmeasured Run, after every measured repetition, so that
	// its Resume samples span the run like the other metrics' do.
	var kept *repResult
	if !b.w.journaled {
		jr, err := b.loop(ctx, 0, 1, mode{journal: true, keep: true, resumes: 1})
		if err != nil {
			return nil, err
		}
		kept = jr[0][0]
		defer os.RemoveAll(kept.journal)
	}
	if _, err := b.loop(ctx, 0, 1, plain); err != nil { // warm-up: caches, lazy init
		return nil, err
	}
	var reps []*repResult
	var resumes []float64
	for deadline := time.Now().Add(b.seconds); len(reps) < 5 || time.Now().Before(deadline); {
		rr, err := b.loop(ctx, 0, 1, plain)
		if err != nil {
			return nil, err
		}
		r := rr[0][0]
		reps = append(reps, r)
		resumes = append(resumes, r.resumes...)
		if kept != nil {
			d, err := b.resume(ctx, kept.journal, kept.input, kept.digest)
			if err != nil {
				return nil, err
			}
			resumes = append(resumes, d.Seconds())
		}
	}
	b.samples = map[string][]float64{
		"experiments_per_s":       each(reps, func(r *repResult) float64 { return float64(r.n) / r.wall.Seconds() }),
		"cpu_ms_per_experiment":   each(reps, func(r *repResult) float64 { return r.perExp(ms(r.after.cpu - r.before.cpu)) }),
		"alloc_kb_per_experiment": each(reps, func(r *repResult) float64 { return r.perExp(float64(r.after.totalAlloc-r.before.totalAlloc) / 1024) }),
		"live_heap_mb":            each(reps, func(r *repResult) float64 { return float64(r.liveHeap) / (1 << 20) }),
		"setup_s":                 each(reps, func(r *repResult) float64 { return r.setup.Seconds() }),
		"resume_s":                resumes,
	}
	units := map[string]string{
		"experiments_per_s": "1/s", "cpu_ms_per_experiment": "ms", "alloc_kb_per_experiment": "KiB",
		"live_heap_mb": "MiB", "setup_s": "s", "resume_s": "s",
	}
	out := map[string]metric{}
	for name, v := range b.samples {
		out[name] = metric{median(v), units[name]}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func each(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, 0, len(reps))
	for _, r := range reps {
		out = append(out, f(r))
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
