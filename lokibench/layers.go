package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"time"

	loki "repro"
	"repro/internal/transport"
)

// snapshot is the sum of the metric registries of a rig's sessions,
// read after a Run.
type snapshot struct {
	counters map[string]uint64
	hists    map[string]hist
}

type hist struct {
	count uint64
	sum   float64
}

func (r *rig) snapshot() snapshot {
	s := snapshot{counters: map[string]uint64{}, hists: map[string]hist{}}
	for _, sess := range []*loki.Session{r.main, r.member} {
		if sess == nil || sess.Metrics() == nil {
			continue
		}
		// LocalSnapshot: the coordinator's copy of a member's series is
		// already counted from the member's own registry.
		snap := sess.Metrics().LocalSnapshot()
		for name, v := range snap.Counters {
			s.counters[name] += v
		}
		for name, h := range snap.Histograms {
			cur := s.hists[name]
			s.hists[name] = hist{cur.count + h.Count, cur.sum + h.Sum}
		}
	}
	return s
}

// counter sums every series of a metric, whatever its labels.
func (s snapshot) counter(base string) float64 {
	var v uint64
	for name, c := range s.counters {
		if name == base || strings.HasPrefix(name, base+"{") {
			v += c
		}
	}
	return float64(v)
}

// hist sums every series of a histogram, whatever its labels; a name
// with labels selects that series alone.
func (s snapshot) hist(base string) hist {
	var out hist
	for name, h := range s.hists {
		if name == base || strings.HasPrefix(name, base+"{") {
			out.count += h.count
			out.sum += h.sum
		}
	}
	return out
}

func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// perLayer is the traced run: per-layer metrics from the program's own
// registry (traced repetitions), the Go runtime (plain repetitions), a CPU
// profile of this process, a journaled pass, and a component replay.
func (b *bench) perLayer(ctx context.Context, outDir string) (map[string]metric, error) {
	plain, traced := mode{}, mode{traced: true}
	if _, err := b.loop(ctx, 0, 1, plain); err != nil { // warm-up
		return nil, err
	}
	// Alternate plain and traced repetitions of the same inputs, so drift
	// in the machine's load hits both alike. Tracing must leave the
	// records alone; only virtual time makes them reproducible.
	reps, err := b.loop(ctx, b.seconds*2/3, 3, plain, traced)
	if err != nil {
		return nil, err
	}
	p, t := reps[0], reps[1]
	for i := range p {
		if !b.w.cluster && p[i].digest != t[i].digest {
			b.problem("round %d: records differ with tracing on", i)
		}
	}
	out := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("metric %s is %v", name, v)
			v = 0
		}
		out[name] = metric{v, unit}
	}
	fromTraced := func(name, unit string, f func(r *repResult) float64) {
		put(name, unit, median(each(t, f)))
	}
	virtual := !b.w.cluster

	fromTraced("campaign.runtime_phase_ms", "ms", func(r *repResult) float64 {
		return 1e3 * r.snap.hist("loki_worker_experiment_seconds").mean()
	})
	fromTraced("campaign.worker_utilization", "ratio", func(r *repResult) float64 {
		if r.workers == 0 {
			return 0 // the cluster engine runs no worker pool
		}
		return r.snap.hist("loki_worker_experiment_seconds").sum / (float64(r.workers) * r.wall.Seconds())
	})
	fromTraced("campaign.analyze_ms", "ms", func(r *repResult) float64 {
		return 1e3 * r.snap.hist(`loki_experiment_phase_seconds{phase="analyze"}`).mean()
	})
	for _, ph := range []string{"reset", "sync", "run"} {
		fromTraced("campaign."+ph+"_ms", "ms", func(r *repResult) float64 {
			if virtual {
				return 0 // the phase histograms hold simulated time here
			}
			return 1e3 * r.perExp(r.snap.hist(`loki_experiment_phase_seconds{phase="`+ph+`"}`).sum)
		})
	}
	for _, c := range []struct{ name, series string }{
		{"core.notifications", "loki_notifications_total"},
		{"core.notifications_dropped", "loki_notifications_dropped_total"},
		{"core.state_changes", "loki_state_changes_total"},
		{"core.injections", "loki_injections_total"},
		{"core.crashes", "loki_node_crashes_total"},
		{"clock.timers_fired", "loki_vclock_timers_fired_total"},
		{"clock.tasks", "loki_vclock_tasks_total"},
		{"chaos.actions", "loki_chaos_actions_total"},
		{"transport.frames", "loki_transport_frames_sent_total"},
		{"transport.retries", "loki_transport_retries_total"},
	} {
		fromTraced(c.name, "count/exp", func(r *repResult) float64 { return r.perExp(r.snap.counter(c.series)) })
	}
	fromTraced("transport.bytes", "bytes/exp", func(r *repResult) float64 {
		return r.perExp(r.snap.counter("loki_transport_bytes_sent_total"))
	})
	fromTraced("transport.rtt_us", "us", func(r *repResult) float64 {
		return 1e6 * r.snap.hist("loki_transport_rtt_seconds").mean()
	})

	put("analysis.accepted_ratio", "ratio", sum(each(p, func(r *repResult) float64 { return float64(r.accepted) }))/
		sum(each(p, func(r *repResult) float64 { return float64(r.n) })))
	put("goruntime.mallocs", "count/exp", median(each(p, func(r *repResult) float64 {
		return r.perExp(float64(r.after.mallocs - r.before.mallocs))
	})))
	put("goruntime.gc_cycles", "count/exp", median(each(p, func(r *repResult) float64 {
		return r.perExp(float64(r.after.numGC - r.before.numGC))
	})))
	put("goruntime.gc_cpu_fraction", "ratio", median(each(p, func(r *repResult) float64 {
		return (r.after.gcCPU - r.before.gcCPU) / (r.after.allCPU - r.before.allCPU)
	})))
	eps := func(r *repResult) float64 { return float64(r.n) / r.wall.Seconds() }
	put("obs.tracing_overhead_pct", "%", 100*(median(each(p, eps))/median(each(t, eps))-1))

	// CPU profile of plain repetitions only, so the shares describe the
	// untraced product; the profile file stays beside the results.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	_, err = b.loop(ctx, b.seconds/3, 2, plain)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		put("cpu_share."+l, "ratio", shares[l])
	}

	// Journal costs: one metered, journaled Run of the workload (the
	// workloads without a journal of their own get one for this pass).
	jr, err := b.loop(ctx, 0, 1, mode{metrics: true, journal: true})
	if err != nil {
		return nil, err
	}
	j := jr[0][0]
	appendSum := j.snap.hist("loki_journal_append_seconds").sum
	put("campaign.journal_append_ms", "ms", 1e3*j.perExp(appendSum))
	put("campaign.journal_fsync_ms", "ms", 1e3*j.snap.hist("loki_journal_fsync_seconds").mean())
	put("campaign.journal_share", "ratio", appendSum/j.wall.Seconds())
	put("campaign.journal_bytes", "bytes/exp", j.perExp(float64(j.journalLen)))

	if err := b.replay(ctx, put); err != nil {
		return nil, err
	}
	return out, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// captures returns the fixed replay set: the raw artifacts (sync stamps
// and local timelines) of seeded single experiments of the workload,
// captured through Session.RunOne.
func (b *bench) captures(ctx context.Context) ([]*loki.Experiment, error) {
	const perWorkload = 6
	var out []*loki.Experiment
	for i := 0; i < perWorkload; i++ {
		f, err := b.w.campaignFile(b.seed, b.inputs)
		if err != nil {
			return nil, err
		}
		if m := f.Matrix; m != nil {
			// RunOne runs a study, not a matrix: one study per scenario,
			// on the matrix template and default latencies.
			st := *m.Study
			sc := m.Scenarios[i%len(m.Scenarios)]
			st.Name, st.Faults, st.Seed = sc.Name, sc.Faults, m.Seeds[0]
			f.Matrix, f.Studies = nil, []loki.StudyFile{st}
		}
		b.inputs++
		f.Studies = f.Studies[:1]
		f.Studies[0].Experiments = 1
		rg, err := b.w.open(f, openOpts{})
		if err != nil {
			return nil, err
		}
		var e *loki.Experiment
		err = rg.drive(ctx, func(ctx context.Context) error {
			var err error
			e, err = rg.main.RunOne(ctx)
			return err
		})
		rg.close()
		if err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// replay times single layers on fixed inputs: the analysis-phase
// components on the captured experiments, the probe notification path,
// and a UDP loopback round trip. Each is a median over its set.
func (b *bench) replay(ctx context.Context, put func(name, unit string, v float64)) error {
	exps, err := b.captures(ctx)
	if err != nil {
		return err
	}
	const ref = "h1" // every workload's reference host
	var est, build, check, enc, dec, entries, size []float64
	for i, e := range exps {
		var bounds map[string]loki.ClockBounds
		est = append(est, perCall(func() { bounds, err = loki.EstimateClocks(e.Stamps, ref) }))
		if err != nil {
			return fmt.Errorf("replay %d: clock estimation: %w", i, err)
		}
		if e.Record.Bounds != nil && !reflect.DeepEqual(bounds, e.Record.Bounds) {
			b.problem("replay %d: clock bounds differ from the pipeline's", i)
		}
		var g *loki.GlobalTimeline
		build = append(build, perCall(func() { g, err = loki.BuildGlobalTimeline(ref, bounds, e.Locals) }))
		if err != nil {
			return fmt.Errorf("replay %d: global timeline: %w", i, err)
		}
		specs := loki.FaultSpecsOf(e.Locals)
		var rep *loki.AnalysisReport
		check = append(check, perCall(func() { rep = loki.CheckExperiment(g, specs, loki.CheckOptions{}) }))
		if e.Record.Completed && rep.Accepted != e.Record.Accepted {
			b.problem("replay %d: containment check accepted=%v, pipeline said %v", i, rep.Accepted, e.Record.Accepted)
		}
		texts := make([]string, len(e.Locals))
		enc = append(enc, perCall(func() {
			for j, l := range e.Locals {
				texts[j], err = loki.EncodeTimeline(l)
			}
		}))
		if err != nil {
			return fmt.Errorf("replay %d: encode: %w", i, err)
		}
		dec = append(dec, perCall(func() {
			for _, s := range texts {
				if _, err2 := loki.DecodeTimeline(s); err2 != nil {
					err = err2
				}
			}
		}))
		if err != nil {
			return fmt.Errorf("replay %d: decode: %w", i, err)
		}
		nEntries, nBytes := 0, 0
		for j, l := range e.Locals {
			nEntries += len(l.Entries)
			nBytes += len(texts[j])
		}
		entries, size = append(entries, float64(nEntries)), append(size, float64(nBytes))
	}
	put("clocksync.estimate_us", "us", median(est)*1e6)
	put("analysis.build_us", "us", median(build)*1e6)
	put("analysis.check_us", "us", median(check)*1e6)
	put("timeline.encode_us", "us", median(enc)*1e6)
	put("timeline.decode_us", "us", median(dec)*1e6)
	put("timeline.entries", "count/exp", median(entries))
	put("timeline.bytes", "bytes/exp", median(size))

	notify, err := notifyLoop()
	if err != nil {
		return err
	}
	put("core.notify_ns", "ns", notify)
	rtt, err := udpRoundTrip()
	if err != nil {
		return err
	}
	put("transport.roundtrip_us", "us", rtt)
	return nil
}

// perCall times fn, repeated until at least 2 ms have passed, and returns
// seconds per call.
func perCall(fn func()) float64 {
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if d := time.Since(start); d >= 2*time.Millisecond && n >= 3 {
			return d.Seconds() / float64(n)
		}
	}
}

// notifyLoop drives Handle.NotifyEvent on a lone node whose fault
// specifications span several machines, and returns the median ns per
// event over batches.
func notifyLoop() (float64, error) {
	rt := loki.NewRuntime(loki.RuntimeConfig{})
	defer rt.Shutdown()
	rt.AddHost("h1", loki.ClockConfig{})
	sm, err := loki.ParseStateMachine(`
global_state_list
  BEGIN
  A
  B
  CRASH
  EXIT
end_global_state_list
event_list
  flip
  flop
end_event_list
state A
  flip B
state B
  flop A
state CRASH
state EXIT
`)
	if err != nil {
		return 0, err
	}
	faults, err := loki.ParseFaultSpecs(`
f1 ((m1:X) & (m2:Y)) once
f2 ((m3:X) | (m4:Y)) always
f3 ~(m5:Z) & (m6:W) always
f4 ((solo:A) & (solo:B)) always
`)
	if err != nil {
		return 0, err
	}
	rt.Register(loki.NodeDef{
		Nickname: "solo", Spec: sm, Faults: faults,
		App: loki.Instrument(func(h *loki.Handle) {
			h.NotifyEvent("A")
			<-h.Done()
		}),
	})
	n, err := rt.StartNode("solo", "h1")
	if err != nil {
		return 0, err
	}
	defer func() {
		rt.KillAll()
		rt.Wait(time.Second)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := n.CurrentState(); ok {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("notify loop: node never entered its first state")
		}
	}
	h := n.Handle()
	const batches, events = 15, 5000
	var perEvent []float64
	for i := 0; i < batches; i++ {
		start := time.Now()
		for j := 0; j < events; j++ {
			ev := "flip"
			if j%2 == 1 {
				ev = "flop"
			}
			if err := h.NotifyEvent(ev); err != nil {
				return 0, err
			}
		}
		perEvent = append(perEvent, float64(time.Since(start).Nanoseconds())/events)
	}
	return median(perEvent), nil
}

// udpRoundTrip echoes a frame between two UDP loopback endpoints and
// returns the median round trip in microseconds.
func udpRoundTrip() (float64, error) {
	eps, err := loki.NewLoopbackCluster(loki.TransportUDP, map[string]string{"h1": "a", "h2": "b"})
	if err != nil {
		return 0, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	a, echo := eps["a"], eps["b"]
	got := make(chan struct{}, 1)
	if err := echo.Start(func(m loki.TransportMessage) {
		_ = echo.SendHost("h1", loki.TransportMessage{Kind: transport.KindNote, State: "pong"}) // a lost echo shows as a timeout below
	}); err != nil {
		return 0, err
	}
	if err := a.Start(func(m loki.TransportMessage) {
		select {
		case got <- struct{}{}:
		default:
		}
	}); err != nil {
		return 0, err
	}
	const rounds = 1000
	var rtts []float64
	lost := 0
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := a.SendHost("h2", loki.TransportMessage{Kind: transport.KindNote, From: "black", To: "green", State: "ping"}); err != nil {
			return 0, err
		}
		select {
		case <-got:
			rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
		case <-time.After(time.Second):
			lost++
		}
	}
	if lost > rounds/10 {
		return 0, fmt.Errorf("udp round trip: %d of %d frames lost", lost, rounds)
	}
	return median(rtts), nil
}
