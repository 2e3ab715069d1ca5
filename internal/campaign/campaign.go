// Package campaign orchestrates Loki's full evaluation pipeline (thesis
// §2.3, Fig. 2.1): for each experiment of each study, the runtime phase
// (with synchronization-message mini-phases before and after), then the
// analysis phase (off-line clock synchronization, global timeline
// construction, conservative injection checking, and discarding of
// experiments with incorrect injections), leaving the accepted global
// timelines ready for the measure estimation phase (internal/measure).
package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/faultexpr"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// HostDef is one virtual host with its hidden clock error.
type HostDef struct {
	Name  string
	Clock vclock.ClockConfig
}

// Study is one study of a campaign (§2.2.3): a set of node definitions
// with their fault specifications, a node file for placement, and an
// experiment count.
type Study struct {
	Name string
	// Nodes defines every state machine that can run (§3.8).
	Nodes []core.NodeDef
	// Placement assigns auto-start nodes to hosts (the node file).
	Placement []spec.NodeEntry
	// Experiments is how many instances to run (default 1).
	Experiments int
	// Timeout aborts hung experiments (default 5 s).
	Timeout time.Duration
	// Restarts configures the supervisor that restarts crashed nodes
	// during an experiment (nil: crashed nodes stay down).
	Restarts *RestartPolicy
	// ChaosSeed seeds the randomness of built-in chaos actions (fault
	// entries with an action call). A chaos engine is attached to every
	// worker runtime whenever any node carries such a fault; the seed is
	// re-applied at each experiment reset, so every experiment faces an
	// identically seeded network.
	ChaosSeed int64
	// Transport selects how the study's hosts talk: "" or "inproc" keeps
	// every host in one runtime on the in-memory bus and uses the
	// campaign's worker pool; "udp" or "tcp" runs the study clustered —
	// one runtime per host, one endpoint per runtime, every cross-host
	// message over a real loopback socket (cluster.go). Socket studies
	// run their experiments sequentially (one runtime set per process),
	// so Campaign.Workers does not apply to them.
	Transport string
	// Workers, when positive, overrides Campaign.Workers for this study.
	// Virtual-time studies often pin Workers=1 for strictly serialized —
	// and therefore byte-reproducible — execution, while real-time studies
	// in the same campaign fan out.
	Workers int
}

// Campaign is a full fault injection campaign (§2.2.3).
type Campaign struct {
	Name    string
	Hosts   []HostDef
	Studies []*Study
	// Workers is the number of concurrent experiment executors per study.
	// Each worker owns its own core.Runtime and virtual-host set, so
	// experiments never share mutable runtime state; results land at their
	// experiment index regardless of completion order. Zero or negative
	// defaults to GOMAXPROCS.
	Workers int
	// Runtime tunes the core runtime (delays, watchdog). If Runtime.Source
	// is nil each worker gets its own SystemSource; a supplied Source is
	// shared by all workers and must be safe for concurrent use.
	Runtime core.Config
	// Sync configures the clock synchronization mini-phases.
	Sync SyncConfig
	// Check configures the analysis-phase strictness.
	Check analysis.CheckOptions
	// Checkpoint, when non-nil, journals every completed experiment
	// record to Checkpoint.Dir and — with Checkpoint.Resume — skips the
	// journaled records on restart, resuming at the first missing
	// point/experiment (checkpoint.go).
	Checkpoint *Checkpoint
	// VirtualTime runs every inproc study against a per-worker
	// virtual-time scheduler (internal/clock.Virtual) instead of the wall
	// clock: sleeps, fault windows, and timeouts complete instantly while
	// the sync mini-phases keep their exact timing geometry. Requires the
	// inproc transport — socket studies and lokid stay real-time — and is
	// part of the journal fingerprint: virtual and real records never mix.
	VirtualTime bool
	// Obs, when non-nil, wires the observability sink into every engine:
	// per-experiment traces (Obs.TraceDir), engine metrics (Obs.Metrics),
	// live progress events (Obs.Watch), and structured diagnostics
	// (Obs.Log). Nil disables all of it at zero cost on the hot paths; the
	// sink is deliberately excluded from the checkpoint fingerprint, so
	// resuming with observability toggled reuses the journal.
	Obs *obs.Sink

	// matrixPoint, set on the per-point campaigns the matrix engine
	// derives, names the point for traces and progress events even when
	// the built study carries its own Name and no journal is attached.
	matrixPoint string
}

// ExperimentRecord is everything one experiment produced.
type ExperimentRecord struct {
	Study     string
	Index     int
	Completed bool // false: timed out and was aborted
	Outcomes  map[string]string
	Bounds    map[string]clocksync.Bounds
	Global    *analysis.Global
	Report    *analysis.Report
	// Accepted experiments (completed, all injections provably correct)
	// feed measure estimation (§2.6).
	Accepted bool
	// AnalysisError, when non-empty, says why the analysis phase could
	// not process the experiment at all — e.g. infeasible clock
	// synchronization after a clockstep fault. Such experiments are
	// discarded (Accepted false), not fatal: rejecting unverifiable runs
	// is the analysis phase's job.
	AnalysisError string
	// ClockStepSuspected refines an infeasible clock fit: the two sync
	// mini-phases each admit an affine model on their own, but at least
	// one host's models disagree beyond tolerance — the signature of a
	// mid-experiment clock step rather than generally bad timestamps.
	// The experiment stays discarded; the verdict says *why*.
	ClockStepSuspected bool
	// ClockStepHosts lists the hosts whose mini-phases disagree, sorted.
	ClockStepHosts []string
	// ClockStepBounds bounds each suspected host's step magnitude from
	// the two per-phase convex-hull fits: the true step Δ satisfies
	// Δ ∈ [postAlphaLo − preAlphaHi, postAlphaHi − preAlphaLo], because
	// each phase's alpha interval rigorously contains that phase's true
	// offset. Keyed like ClockStepHosts.
	ClockStepBounds map[string]StepBound
}

// StepBound is a rigorous interval (in reference-clock nanoseconds) on a
// suspected mid-experiment clock step's magnitude.
type StepBound struct {
	Lo vclock.Ticks
	Hi vclock.Ticks
}

// StudyResult aggregates a study's experiments.
type StudyResult struct {
	Name    string
	Records []*ExperimentRecord
}

// AcceptedGlobals returns the global timelines of accepted experiments —
// the input to measure.StudyMeasure.ApplyAll. It is nil-receiver safe, so
// Result.Study("missing").AcceptedGlobals() is an empty slice, not a panic.
func (s *StudyResult) AcceptedGlobals() []*analysis.Global {
	if s == nil {
		return nil
	}
	out := make([]*analysis.Global, 0, len(s.Records))
	for _, r := range s.Records {
		if r != nil && r.Accepted {
			out = append(out, r.Global)
		}
	}
	return out
}

// AcceptanceRate is the fraction of experiments that survived analysis.
// A nil receiver (missing study) rates 0.
func (s *StudyResult) AcceptanceRate() float64 {
	if s == nil || len(s.Records) == 0 {
		return 0
	}
	n := 0
	for _, r := range s.Records {
		if r != nil && r.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(s.Records))
}

// Result is a campaign's complete output.
type Result struct {
	Name    string
	Studies []*StudyResult
}

// Study returns the named study's results, or nil.
func (r *Result) Study(name string) *StudyResult {
	for _, s := range r.Studies {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ValidateWorkers rejects a negative worker-pool size. Zero means "default
// to GOMAXPROCS" and stays legal; a negative count was previously clamped
// silently, hiding sign bugs in callers' pool arithmetic.
func ValidateWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("campaign: Workers is %d; it must be positive, or 0 for GOMAXPROCS", workers)
	}
	return nil
}

// ValidateExperiments rejects a non-positive experiment count up front. A
// study that says how many experiments to run must say a positive number;
// the old silent default of 1 hid dropped configuration.
func ValidateExperiments(study string, experiments int) error {
	if experiments <= 0 {
		return fmt.Errorf("campaign: study %q: Experiments is %d; it must be positive", study, experiments)
	}
	return nil
}

// Validate checks the campaign's configuration before any experiment runs:
// hosts and studies present, study names unique, worker and experiment
// counts sane. Run performs the same checks; config.Validate applies the
// same count rules to campaign files.
func Validate(c *Campaign) error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("campaign: no hosts defined")
	}
	if len(c.Studies) == 0 {
		return fmt.Errorf("campaign: no studies defined")
	}
	if err := ValidateWorkers(c.Workers); err != nil {
		return err
	}
	// Duplicate study names would shadow each other in Result.Study and
	// collide in the checkpoint journal's record keys: fail at start,
	// before any experiment runs.
	names := make(map[string]bool, len(c.Studies))
	for _, st := range c.Studies {
		if names[st.Name] {
			return fmt.Errorf("campaign: duplicate study name %q", st.Name)
		}
		names[st.Name] = true
		if err := ValidateExperiments(st.Name, st.Experiments); err != nil {
			return err
		}
		if err := ValidateWorkers(st.Workers); err != nil {
			return fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
		if err := validateVirtualTransport(c, st); err != nil {
			return err
		}
	}
	return nil
}

// validateVirtualTransport rejects virtual time over socket transports:
// the virtual scheduler owns every wait in the process, which a real
// loopback socket (or a peer lokid process) cannot participate in.
func validateVirtualTransport(c *Campaign, st *Study) error {
	if c.VirtualTime && st.Transport != "" && st.Transport != "inproc" {
		return fmt.Errorf("campaign: study %q: virtual time requires the inproc transport, not %q", st.Name, st.Transport)
	}
	return nil
}

// watchCancel runs onCancel (once) when ctx is cancelled. The returned
// stop function joins the watcher, guaranteeing onCancel either already
// ran or never will — the happens-before edge the callers need before
// reading state onCancel writes.
func watchCancel(ctx context.Context, onCancel func()) (stop func()) {
	stopCh := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			onCancel()
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-exited
	}
}

// Run executes the campaign: every experiment of every study, runtime
// phase through analysis phase. When ctx is cancelled, no further
// experiments are dispatched, in-flight experiments drain (a runtime phase
// is never interrupted mid-experiment; clustered studies are quit at the
// protocol level), and the returned error wraps ctx.Err().
func Run(ctx context.Context, c *Campaign) (*Result, error) {
	if err := Validate(c); err != nil {
		return nil, err
	}
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	res := &Result{Name: c.Name}
	for _, st := range c.Studies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr, err := runStudyOn(ctx, c, st, j.study(c, st, st.Name))
		if err != nil {
			return nil, fmt.Errorf("campaign: study %q: %w", st.Name, err)
		}
		res.Studies = append(res.Studies, sr)
	}
	return res, nil
}

// clustered reports whether the study's Transport is a socket kind, which
// runs on a loopback cluster instead of the worker pool.
func clustered(st *Study) bool { return st.Transport != "" && st.Transport != "inproc" }

// studyTimeout is the study's experiment timeout, defaulting to 5 s.
func studyTimeout(st *Study) time.Duration {
	if st.Timeout <= 0 {
		return 5 * time.Second
	}
	return st.Timeout
}

// studyPoint names the study (or matrix point) for traces and progress
// events: the journal's record namespace when one is bound, else the
// matrix point, else the study name.
func studyPoint(c *Campaign, st *Study, sj *studyJournal) string {
	switch {
	case sj != nil:
		return sj.point
	case c.matrixPoint != "":
		return c.matrixPoint
	}
	return st.Name
}

// runStudyOn dispatches a study to the engine its Transport selects: ""
// or "inproc" runs on the in-memory bus with the campaign's worker pool;
// socket kinds run clustered — one runtime per host, every cross-host
// message over a real loopback socket, experiments in sequence
// (Workers=1 per process). RunMatrix routes its points through here too,
// so a requested transport is never silently downgraded.
func runStudyOn(ctx context.Context, c *Campaign, st *Study, sj *studyJournal) (*StudyResult, error) {
	if err := validateVirtualTransport(c, st); err != nil {
		return nil, err
	}
	if clustered(st) {
		return runClustered(ctx, c, st, st.Transport, sj)
	}
	return runStudy(ctx, c, st, sj)
}

// RunSingle executes exactly one experiment of the campaign's first study
// and additionally returns the raw runtime artifacts: the stamped
// synchronization messages of both mini-phases and the local timelines.
// The file-oriented tools (cmd/lokid) use this to emit the §3.5.6 and
// timestamp files that the rest of the pipeline consumes.
//
// A study with a socket Transport runs through the clustered loopback
// engine — the transport is never silently downgraded to inproc, matching
// runStudyOn. With a Checkpoint configured, a completed experiment in the
// journal is returned (artifacts included) without building a runtime or
// a cluster. Cancelling ctx quits a clustered experiment at the protocol
// level; an in-process one is not started when ctx is already done (a
// single runtime phase is never interrupted midway).
func RunSingle(ctx context.Context, c *Campaign) (*ExperimentRecord, []clocksync.StampedMessage, []*timeline.Local, error) {
	if len(c.Hosts) == 0 || len(c.Studies) == 0 {
		return nil, nil, nil, fmt.Errorf("campaign: need hosts and a study")
	}
	if err := ValidateWorkers(c.Workers); err != nil {
		return nil, nil, nil, err
	}
	st := c.Studies[0]
	if err := validateVirtualTransport(c, st); err != nil {
		return nil, nil, nil, err
	}
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, nil, nil, err
	}
	defer j.Close()
	sj := j.study(c, st, st.Name)
	return runSingle(ctx, c, st, sj, func(index int) (raw *rawExperiment, err error) {
		if clustered(st) {
			err = withLoopbackCluster(c, st, st.Transport, func(coordinator *Member) error {
				return coordinator.coordinate(ctx, 1, func() (bool, error) {
					var err error
					raw, err = coordinator.runOne(index)
					return true, err
				})
			})
			return raw, err
		}
		run, release, err := poolRunner(c, st, studyPoint(c, st, sj))
		if err != nil {
			return nil, err
		}
		defer release()
		return run(index)
	})
}

// runSingle is the single-shot pipeline RunSingle and Member.RunOne
// share: a journaled experiment 0 comes back with its raw artifacts
// without running; otherwise run executes it, and its record is analyzed
// and journaled together with those artifacts. A done ctx starts nothing,
// and its error wins over the one a quit cluster protocol produces.
func runSingle(ctx context.Context, c *Campaign, st *Study, sj *studyJournal, run runner) (*ExperimentRecord, []clocksync.StampedMessage, []*timeline.Local, error) {
	if rec, locals, stamps, err := sj.lookupRaw(0); err != nil || rec != nil {
		return rec, stamps, locals, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	raw, err := run(0)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, nil, ctxErr
		}
		return nil, nil, nil, err
	}
	rec, err := analyzeExperiment(c, st, raw)
	if err != nil {
		return nil, nil, nil, err
	}
	stamps := raw.allStamps()
	if err := sj.recordRaw(rec, raw.locals, stamps); err != nil {
		return nil, nil, nil, err
	}
	return rec, stamps, raw.locals, nil
}

// rawExperiment is the runtime phase's output handed to the analysis
// stage: everything analysis needs, deep-copied out of the worker's
// runtime so the next experiment on that runtime cannot alias it. The
// two sync mini-phases stay separate so the analysis can compare their
// fits when the combined fit is infeasible (clock-step detection).
type rawExperiment struct {
	index      int
	completed  bool
	outcomes   map[string]string
	preStamps  []clocksync.StampedMessage
	postStamps []clocksync.StampedMessage
	locals     []*timeline.Local
	// lostTimelines names machines whose timelines could not be
	// collected (clustered runs: unencodable or over the frame budget).
	// The experiment cannot be verified without them and is discarded.
	lostTimelines []string
	// syncError records a failed synchronization mini-phase (clustered
	// runs: too many lost round trips). The experiment is discarded —
	// without sound stamps nothing about it can be verified — but the
	// study continues, matching the discard-don't-abort analysis
	// semantics everywhere else.
	syncError string
	ref       string
	// trace is the experiment's span/event collection (nil with tracing
	// off). traceEnd is the runtime clock's reading at the end of the
	// phase, captured inside the virtual-time Drive window: the analysis
	// stage runs on untracked goroutines that race later Drive windows, so
	// its trace entries reuse this timestamp instead of reading the clock —
	// the virtual-time artifact stays byte-reproducible.
	trace    *obs.Trace
	traceEnd time.Time
}

func (raw *rawExperiment) allStamps() []clocksync.StampedMessage {
	out := make([]clocksync.StampedMessage, 0, len(raw.preStamps)+len(raw.postStamps))
	out = append(out, raw.preStamps...)
	return append(out, raw.postStamps...)
}

// newStudyRuntime builds one worker's private runtime: its own virtual
// host set (clocks included), node registrations, and — when the study
// carries action faults — its own chaos engine, so concurrent experiments
// share no mutable runtime state.
func newStudyRuntime(c *Campaign, st *Study) (*core.Runtime, *core.CentralDaemon, string, error) {
	// core.New defaults a nil Source to a fresh SystemSource, giving each
	// worker its own time base unless the campaign supplies a shared one.
	cfg := c.Runtime
	cfg.Obs = c.Obs
	if c.VirtualTime {
		// Each worker owns a private virtual-time scheduler: the host
		// clocks' hidden offset/drift geometry is applied over simulated
		// time, so the convex-hull estimator sees the exact stamps a
		// real-time run would produce.
		v := clock.NewVirtual()
		cfg.Clock = v
		cfg.Source = v.Source()
	}
	rt := core.New(cfg)
	for _, h := range c.Hosts {
		rt.AddHost(h.Name, h.Clock)
	}
	for _, def := range st.Nodes {
		if err := rt.Register(def); err != nil {
			rt.Shutdown()
			return nil, nil, "", err
		}
	}
	if chaos.HasActionFaults(st.Nodes) {
		if err := chaos.ValidateSpecs(st.Nodes, rt.Hosts()); err != nil {
			rt.Shutdown()
			return nil, nil, "", err
		}
		chaos.Attach(rt, st.ChaosSeed)
	}
	if tr := rt.Transport(); tr != nil {
		transport.SetObserver(tr, c.Obs.TransportMetrics(tr.Name()))
	}
	return rt, core.NewCentralDaemon(rt), referenceHost(rt), nil
}

// runner executes one experiment's runtime phase and hands back its raw
// artifacts. Each study worker owns one runner and calls it sequentially.
type runner func(index int) (*rawExperiment, error)

// runStudy executes a study on the in-process worker pool: each worker
// owns a private runtime (poolRunner), driven by the shared study loop.
func runStudy(ctx context.Context, c *Campaign, st *Study, sj *studyJournal) (*StudyResult, error) {
	workers := c.Workers
	if st.Workers > 0 {
		workers = st.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	point := studyPoint(c, st, sj)
	return driveStudy(ctx, c, st, sj, "", workers, func() (runner, func(), error) {
		return poolRunner(c, st, point)
	})
}

// poolRunner builds one pool worker's private runtime and returns the
// runner that executes runtime phases on it, plus the release function
// that exports the worker's virtual-clock activity (the scheduler's
// counters are cumulative over the worker's whole run) and shuts the
// runtime down.
func poolRunner(c *Campaign, st *Study, point string) (runner, func(), error) {
	rt, cd, ref, err := newStudyRuntime(c, st)
	if err != nil {
		return nil, nil, err
	}
	timeout := studyTimeout(st)
	run := func(index int) (*rawExperiment, error) {
		return runRuntimePhase(c, st, rt, cd, ref, point, index, timeout)
	}
	release := func() {
		if cm := c.Obs.CampaignMetrics(); cm != nil {
			if v, ok := rt.Clock().(*clock.Virtual); ok {
				s := v.Stats()
				cm.VClockTimersFired.Add(s.FiredTimers)
				cm.VClockTasks.Add(s.Tasks)
			}
		}
		rt.Shutdown()
	}
	return run, release, nil
}

// driveStudy is the one study loop, shared by the worker pool and the
// cluster coordinator. newRunner builds one worker's runner and its
// release function (nil: nothing to release); runtime workers feed raw
// experiment artifacts to analysis workers, so the clock-sync/global-
// timeline/containment work for experiment k overlaps the runtime phase
// of experiment k+1 — even with a single runtime worker. Records land at
// their experiment index regardless of completion order, so parallel and
// sequential runs order results identically. member labels the progress
// events (a coordinator's peer name; "" for the pool).
//
// With a journal, experiments already journaled are loaded instead of
// re-executed — when all are, no runner is built at all — and each freshly
// analyzed record is appended as it completes, so a killed study resumes
// at the first missing index.
//
// Cancelling ctx stops dispatching further experiment indexes; in-flight
// runtime phases finish (journaling their records, so a resumed run loses
// nothing) and ctx.Err() is returned — also when a runner failed because
// the cancellation quit its cluster protocol.
func driveStudy(ctx context.Context, c *Campaign, st *Study, sj *studyJournal, member string, workers int,
	newRunner func() (runner, func(), error)) (*StudyResult, error) {

	experiments := st.Experiments
	if err := ValidateExperiments(st.Name, experiments); err != nil {
		return nil, err
	}
	records := make([]*ExperimentRecord, experiments)
	var missing []int
	for i := 0; i < experiments; i++ {
		rec, err := sj.lookup(i)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			records[i] = rec
			continue
		}
		missing = append(missing, i)
	}
	// Progress events carry cumulative counts, journaled records included,
	// so a resumed study's watcher sees 7000/10000 — not 0/3000.
	point := studyPoint(c, st, sj)
	var progressDone, progressAccepted atomic.Int64
	for _, rec := range records {
		if rec == nil {
			continue
		}
		progressDone.Add(1)
		if rec.Accepted {
			progressAccepted.Add(1)
		}
	}
	c.Obs.Emit(obs.Event{
		Kind: obs.EventStudyStart, Point: point, Experiments: experiments,
		Completed: int(progressDone.Load()), Accepted: int(progressAccepted.Load()), Member: member,
	})
	defer func() {
		c.Obs.Emit(obs.Event{
			Kind: obs.EventStudyDone, Point: point, Experiments: experiments,
			Completed: int(progressDone.Load()), Accepted: int(progressAccepted.Load()), Member: member,
		})
	}()
	if len(missing) == 0 {
		// Fully journaled: no worker runtimes to build at all, which is
		// what makes resuming a finished multi-hour study instantaneous.
		return &StudyResult{Name: st.Name, Records: records}, nil
	}

	if workers > len(missing) {
		workers = len(missing)
	}
	var (
		errOnce  sync.Once
		firstErr error
		done     = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}
	failed := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	// Cancellation is NOT a failure: it only stops the dispatcher, so
	// every in-flight runtime phase still finishes, is analyzed, and is
	// journaled (a resumed run loses nothing), and ctx.Err() surfaces at
	// the end. Real failures close done and drop queued work.
	stopDispatch := make(chan struct{})
	stopWatch := watchCancel(ctx, func() { close(stopDispatch) })

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for _, i := range missing {
			select {
			case idxCh <- i:
			case <-done:
				return
			case <-stopDispatch:
				return
			}
		}
	}()

	cm := c.Obs.CampaignMetrics()
	rawCh := make(chan *rawExperiment, workers)
	var runWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		runWG.Add(1)
		go func() {
			defer runWG.Done()
			run, release, err := newRunner()
			if err != nil {
				fail(err)
				return
			}
			if release != nil {
				defer release()
			}
			for i := range idxCh {
				var busy time.Time
				if cm != nil {
					busy = obs.Now()
				}
				raw, err := run(i)
				if cm != nil {
					cm.WorkerBusySeconds.ObserveSince(busy)
				}
				if err != nil {
					fail(fmt.Errorf("experiment %d: %w", i, err))
					return
				}
				select {
				case rawCh <- raw:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		runWG.Wait()
		close(rawCh)
	}()

	var anWG sync.WaitGroup
	for a := 0; a < workers; a++ {
		anWG.Add(1)
		go func() {
			defer anWG.Done()
			for raw := range rawCh {
				if failed() {
					continue // drain
				}
				rec, err := analyzeExperiment(c, st, raw)
				if err != nil {
					fail(err)
					continue
				}
				records[raw.index] = rec
				if err := sj.record(rec); err != nil {
					fail(err)
					continue
				}
				nDone := int(progressDone.Add(1))
				if rec.Accepted {
					progressAccepted.Add(1)
				}
				c.Obs.Emit(obs.Event{
					Kind: obs.EventExperiment, Point: point, Index: raw.index,
					Experiments: experiments, Completed: nDone,
					Accepted: int(progressAccepted.Load()), AcceptedOne: rec.Accepted, Member: member,
				})
			}
		}()
	}
	anWG.Wait()
	stopWatch()

	// A cancelled study surfaces ctx.Err() — after the drain above has
	// journaled everything that was in flight.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &StudyResult{Name: st.Name, Records: records}, nil
}

// The runtime phase's steps, in order, as phaseTimer records them.
const (
	stepReset = iota
	stepSyncPre
	stepExperiment
	stepSyncPost
)

var stepSpans = [...]string{"reset", "clock-sync-pre", "experiment", "clock-sync-post"}

// phaseTimer times one experiment's runtime-phase steps for both engines.
// Timestamps come from the runtime clock — the injected wall clock in
// real time, the simulated clock under virtual time — so the trace of a
// virtual run is byte-reproducible. Each step becomes a trace span and an
// observation of its phase histogram; with tracing and metrics off no
// clock is read at all.
type phaseTimer struct {
	rt   *core.Runtime
	clk  clock.Clock
	tr   *obs.Trace
	cm   *obs.CampaignMetrics
	last time.Time // end of the previous step, start of the current one
}

// startPhases opens the experiment's trace on rt (when tracing) and
// starts timing its first step. stop detaches the trace again.
func startPhases(c *Campaign, rt *core.Runtime, point string, index int) phaseTimer {
	p := phaseTimer{rt: rt, clk: rt.Clock(), cm: c.Obs.CampaignMetrics()}
	if c.Obs.Tracing() {
		p.tr = obs.NewTrace(point, index)
		rt.SetTrace(p.tr)
	}
	if p.tr != nil || p.cm != nil {
		p.last = p.clk.Now()
	}
	return p
}

// lap ends the given step at the current clock reading.
func (p *phaseTimer) lap(step int) {
	if p.tr == nil && p.cm == nil {
		return
	}
	now := p.clk.Now()
	p.tr.Span(stepSpans[step], p.last, now)
	if p.cm != nil {
		h := p.cm.SyncSeconds
		switch step {
		case stepReset:
			h = p.cm.ResetSeconds
		case stepExperiment:
			h = p.cm.RunSeconds
		}
		h.Observe(now.Sub(p.last).Seconds())
	}
	p.last = now
}

func (p *phaseTimer) stop() {
	if p.tr != nil {
		p.rt.SetTrace(nil)
	}
}

// runRuntimePhase executes one experiment's runtime phase on the worker's
// runtime: pre-sync mini-phase, the experiment itself (with supervised
// restarts if configured), post-sync mini-phase, and artifact snapshots.
// point names the study or matrix point for traces and progress events.
func runRuntimePhase(c *Campaign, st *Study, rt *core.Runtime, cd *core.CentralDaemon,
	ref, point string, index int, timeout time.Duration) (*rawExperiment, error) {

	// Under virtual time the worker drives its runtime's scheduler for
	// the duration of the phase: timers fire (advancing simulated time)
	// only inside this window, and the worker itself is a tracked task
	// that may block only through the runtime clock.
	if v, ok := rt.Clock().(*clock.Virtual); ok {
		v.Drive()
		defer v.Release()
	}
	ph := startPhases(c, rt, point, index)
	defer ph.stop()

	// Reset BEFORE the pre-sync mini-phase: the previous experiment's
	// faults (a stepped clock above all) must not leak into this
	// experiment's synchronization stamps, or its clock fit would be
	// spuriously infeasible depending on which worker ran what.
	// RunExperiment resets again internally; the second reset is a no-op
	// by then.
	rt.ResetExperiment()
	ph.lap(stepReset)

	// Pre-experiment synchronization mini-phase (§2.3).
	stamps := exchangeStamps(rt, ref, c.Sync)
	ph.lap(stepSyncPre)

	// Runtime phase, with the supervisor restarting crashed nodes if the
	// study asks for it.
	var sup *supervisor
	if st.Restarts != nil {
		sup = startSupervisor(rt, *st.Restarts)
	}
	runRes, err := cd.RunExperiment(st.Placement, timeout)
	if sup != nil {
		sup.stop()
	}
	if err != nil {
		return nil, err
	}
	ph.lap(stepExperiment)

	// Post-experiment synchronization mini-phase.
	postStamps := exchangeStamps(rt, ref, c.Sync)
	ph.lap(stepSyncPost)

	return &rawExperiment{
		index:      index,
		completed:  runRes.Completed,
		outcomes:   runRes.Outcomes,
		preStamps:  stamps,
		postStamps: postStamps,
		locals:     snapshotTimelines(runRes.Timelines),
		ref:        ref,
		trace:      ph.tr,
		traceEnd:   ph.last,
	}, nil
}

// analyzeExperiment is the analysis phase for one experiment: off-line
// clock synchronization, projection onto the global timeline, conservative
// injection checking (§2.5). It touches no runtime state, which is what
// lets it run concurrently with later experiments' runtime phases. Around
// the analysis proper it settles the experiment's observability: the
// verdict counters, the analyze/verdict trace entries, and the trace
// artifact itself.
func analyzeExperiment(c *Campaign, st *Study, raw *rawExperiment) (*ExperimentRecord, error) {
	cm := c.Obs.CampaignMetrics()
	var wall time.Time
	if cm != nil {
		wall = obs.Now()
	}
	rec, err := analyzeExperimentRecord(c, st, raw)
	if err != nil {
		return rec, err
	}
	if cm != nil {
		// Analysis latency is an operational signal, so it is wall-clock
		// even under virtual time (analysis runs off the simulated clock's
		// schedule entirely).
		cm.AnalyzeSeconds.ObserveSince(wall)
		switch {
		case !rec.Completed:
			cm.Aborted.Inc()
		case rec.Accepted:
			cm.Accepted.Inc()
		default:
			cm.Rejected.Inc()
		}
	}
	if tr := raw.trace; tr != nil {
		// The analyze span and verdict event reuse the runtime phase's
		// final clock reading (see rawExperiment.traceEnd): zero duration,
		// but deterministic — the analysis goroutine must not read a
		// virtual clock it does not drive.
		tr.Span("analyze", raw.traceEnd, raw.traceEnd)
		tr.Event(raw.traceEnd, obs.CatVerdict, verdictName(rec), rec.AnalysisError)
		if err := c.Obs.WriteTrace(tr); err != nil {
			c.Obs.Logf(obs.Warn, "campaign", "trace %s/%d: %v", tr.Point, tr.Index, err)
		}
	}
	return rec, nil
}

// verdictName names an experiment's analysis verdict for traces and events.
func verdictName(rec *ExperimentRecord) string {
	switch {
	case !rec.Completed:
		return "aborted"
	case rec.Accepted:
		return "accepted"
	default:
		return "rejected"
	}
}

// analyzeExperimentRecord is the analysis phase proper.
func analyzeExperimentRecord(c *Campaign, st *Study, raw *rawExperiment) (*ExperimentRecord, error) {
	rec := &ExperimentRecord{
		Study:     st.Name,
		Index:     raw.index,
		Completed: raw.completed,
		Outcomes:  raw.outcomes,
	}
	if !rec.Completed {
		// Aborted experiments are discarded outright (§3.5.1).
		return rec, nil
	}
	if raw.syncError != "" {
		rec.AnalysisError = raw.syncError
		return rec, nil
	}
	if len(raw.lostTimelines) > 0 {
		// A machine missing from the global timeline cannot have its
		// injections checked; accepting would be unsound.
		rec.AnalysisError = fmt.Sprintf("timelines not collected for %v", raw.lostTimelines)
		return rec, nil
	}
	bounds, err := clocksync.EstimateAll(raw.allStamps(), raw.ref)
	if err != nil {
		// Infeasible synchronization — a stepped or otherwise non-affine
		// clock — means nothing about this run can be verified: discard
		// it, as the analysis phase discards unprovable injections. But
		// say why when the evidence allows: if each mini-phase admits an
		// affine fit on its own and the fits disagree, the clock stepped
		// mid-experiment (§2.5's linear-drift assumption was violated
		// between the phases, not within them).
		rec.AnalysisError = fmt.Sprintf("clock sync: %v", err)
		rec.ClockStepHosts, rec.ClockStepBounds = clockStepHosts(raw)
		rec.ClockStepSuspected = len(rec.ClockStepHosts) > 0
		return rec, nil
	}
	rec.Bounds = bounds
	g, err := analysis.Build(raw.ref, bounds, raw.locals)
	if err != nil {
		rec.AnalysisError = fmt.Sprintf("global timeline: %v", err)
		return rec, nil
	}
	rec.Global = g
	rec.Report = analysis.CheckExperiment(g, analysis.SpecsFromLocals(raw.locals), c.Check)
	rec.Accepted = rec.Report.Accepted
	return rec, nil
}

// clockStepHosts fits each sync mini-phase separately and returns the
// hosts whose per-phase (alpha, beta) bound boxes are disjoint in alpha —
// hosts whose clock apparently jumped between the phases — along with a
// rigorous interval on each step's magnitude. Empty when either phase
// fails to fit on its own (then the timestamps are bad in a way a step
// cannot explain).
func clockStepHosts(raw *rawExperiment) ([]string, map[string]StepBound) {
	pre, err := clocksync.EstimateAll(raw.preStamps, raw.ref)
	if err != nil {
		return nil, nil
	}
	post, err := clocksync.EstimateAll(raw.postStamps, raw.ref)
	if err != nil {
		return nil, nil
	}
	var hosts []string
	var bounds map[string]StepBound
	for h, pb := range pre {
		qb, ok := post[h]
		if !ok {
			continue
		}
		// The alpha intervals are rigorous per-phase bounds: an affine
		// clock's true alpha lies in both, so disjoint intervals prove no
		// single affine model spans the experiment.
		if qb.AlphaLo > pb.AlphaHi || qb.AlphaHi < pb.AlphaLo {
			hosts = append(hosts, h)
			// The step moved the offset from somewhere in the pre interval
			// to somewhere in the post interval, so its magnitude is
			// bracketed by the extreme differences (floored/ceiled to keep
			// the interval conservative in Ticks).
			if bounds == nil {
				bounds = make(map[string]StepBound)
			}
			bounds[h] = StepBound{
				Lo: vclock.Ticks(math.Floor(qb.AlphaLo - pb.AlphaHi)),
				Hi: vclock.Ticks(math.Ceil(qb.AlphaHi - pb.AlphaLo)),
			}
		}
	}
	sort.Strings(hosts)
	return hosts, bounds
}

// snapshotTimelines deep-copies the store's timelines so later experiments
// cannot alias them.
func snapshotTimelines(in []*timeline.Local) []*timeline.Local {
	out := make([]*timeline.Local, len(in))
	for i, l := range in {
		cp := *l
		cp.Entries = append([]timeline.Entry(nil), l.Entries...)
		cp.Machines = append([]string(nil), l.Machines...)
		cp.GlobalStates = append([]string(nil), l.GlobalStates...)
		cp.Events = append([]string(nil), l.Events...)
		cp.Faults = append([]faultexpr.Spec(nil), l.Faults...)
		cp.Hosts = append([]string(nil), l.Hosts...)
		out[i] = &cp
	}
	return out
}
