package campaign

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/timeline"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The clustered runner: one core.Runtime per transport endpoint, each
// owning a subset of the virtual hosts, cooperating through a small
// control protocol to run the same experiments the single-process engine
// runs. One endpoint — the owner of the lexicographically first host, so
// the analysis reference machine is local to it — coordinates:
//
//	reset(i)  ->  members reset their runtimes, move to epoch i+1,  ack
//	(pre-sync: clock ping-pong frames against every remote host)
//	start(i)  ->  members start their local auto-start nodes
//	done(i)   <-  a member's local nodes all exited/crashed
//	seal(i)   ->  members seal, kill stragglers, stream results back
//	result(i) <-  one frame per local timeline (the §3.5.6 text format
//	              is the wire format) plus outcomes
//	(post-sync), then the coordinator runs the ordinary analysis phase.
//
// Every coordinator->member instruction is re-broadcast until its effect
// is observed and every member->coordinator report is re-sent until the
// next instruction arrives, so the protocol rides out UDP loss with
// idempotent handlers instead of acknowledgement state machines.
type clusterMsg struct {
	Index     int
	Peer      string
	Completed bool
	Outcomes  map[string]string
	Timeline  string   // one encoded local timeline chunk (result frames)
	More      bool     // the chunked document continues in the next frame
	Dropped   []string // owners of timelines that could not be shipped
	Seq       int      // frame ordinal within this peer's set
	Total     int      // frame count from this peer

	// Trace context, carried on reset frames: the point name members
	// label their trace buffers with, and whether the coordinator will
	// pull a trace for this experiment.
	Point   string
	TraceOn bool
	// Trace and Metrics are one chunk each of a member's encoded trace
	// artifact (traceres frames) or metrics snapshot JSON (metricsres
	// frames), chunked across frames exactly like timelines.
	Trace   string
	Metrics string
}

// syncWire is the payload of the clock-sync ping-pong frames.
type syncWire struct {
	Seq        int
	RemoteRecv int64 // remote virtual host clock at ping receipt
	RemoteSend int64 // remote virtual host clock at pong transmission
	// Process runtime-clock readings (UnixNano) taken alongside the
	// virtual stamps. The virtual stamps feed the convex-hull analysis;
	// these feed the coordinator's NTP-style midpoint estimate of each
	// member's process-clock offset, which aligns merged trace lanes.
	ProcRecv int64
	ProcSend int64
}

// Protocol ops, carried in Message.State of KindCtrl frames.
const (
	opReset      = "reset"
	opResetOK    = "resetok"
	opStart      = "start"
	opDone       = "done"
	opSeal       = "seal"
	opResult     = "result"
	opStop       = "stop"
	opTrace      = "trace"      // coordinator pulls a member's experiment trace
	opTraceRes   = "traceres"   // one member trace chunk
	opMetrics    = "metrics"    // coordinator pulls a member's registry snapshot
	opMetricsRes = "metricsres" // one member metrics chunk
)

const (
	clusterRetry       = 25 * time.Millisecond
	clusterAckTimeout  = 10 * time.Second
	clusterPongTimeout = 500 * time.Millisecond
)

func encodeClusterMsg(m clusterMsg) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		panic("campaign: encoding cluster message: " + err.Error())
	}
	return buf.Bytes()
}

func decodeClusterMsg(b []byte) (clusterMsg, error) {
	var m clusterMsg
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m)
	return m, err
}

func encodeSyncWire(w syncWire) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		panic("campaign: encoding sync frame: " + err.Error())
	}
	return buf.Bytes()
}

func decodeSyncWire(b []byte) (syncWire, error) {
	var w syncWire
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w)
	return w, err
}

// Member is one endpoint of a clustered study: a private runtime hosting
// the locally-owned virtual hosts, listening on its transport. The
// coordinator member drives the protocol (RunStudy); the others follow
// (Serve).
type Member struct {
	c  *Campaign
	st *Study
	tr transport.Transport
	rt *core.Runtime

	peer    string   // this endpoint's peer name
	hosts   []string // all hosts, sorted (cluster-wide)
	ref     string   // reference host (sorted-first, coordinator-local)
	timeout time.Duration
	syncSeq int // monotonic across mini-phases: a stale pong must never match

	// align is the coordinator's per-peer process-clock alignment for the
	// current experiment: the min-RTT round's midpoint offset estimate,
	// used to rebase merged member trace lanes. Reset each runOne.
	align map[string]memberAlign
	// traceWarned dedups the member-side "coordinator wants traces but I
	// have no buffer" warning to once per process.
	traceWarned bool

	// sj is the coordinator's checkpoint binding. The in-process engines
	// hand one down; a stand-alone coordinator (cmd/lokid) opens its own
	// from the campaign's Checkpoint in RunStudy/RunOne.
	sj *studyJournal

	inbox    chan transport.Message
	quit     chan struct{} // closed by Quit; unblocks Serve without a frame
	quitOnce sync.Once
}

// NewMember builds one endpoint's runtime for the study: the campaign
// hosts owned by tr's topology get clocks here, every node definition is
// registered (placement says which ones run here), and a chaos engine
// attaches when the study carries action faults.
func NewMember(c *Campaign, st *Study, tr transport.Transport) (*Member, error) {
	topo := tr.Topology()
	m := &Member{
		c:       c,
		st:      st,
		tr:      tr,
		peer:    topo.Local,
		timeout: studyTimeout(st),
		inbox:   make(chan transport.Message, 256),
		quit:    make(chan struct{}),
	}

	cfg := c.Runtime
	cfg.Transport = tr
	cfg.Obs = c.Obs
	transport.SetObserver(tr, c.Obs.TransportMetrics(tr.Name()))
	rt := core.New(cfg)
	for _, h := range c.Hosts {
		m.hosts = append(m.hosts, h.Name)
		switch topo.Owner(h.Name) {
		case topo.Local:
			rt.AddHost(h.Name, h.Clock)
		case "":
			// An unowned host would silently never run its nodes on any
			// endpoint — and the experiment could then be accepted with
			// that machine's injections unchecked. Refuse the topology.
			rt.Shutdown()
			return nil, fmt.Errorf("campaign: cluster member %q: no peer owns host %q", m.peer, h.Name)
		}
	}
	sort.Strings(m.hosts)
	if len(m.hosts) == 0 {
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no hosts", m.peer)
	}
	m.ref = m.hosts[0]
	for _, def := range st.Nodes {
		if err := rt.Register(def); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	placement := make(map[string]string, len(st.Placement))
	for _, e := range st.Placement {
		if e.Host != "" {
			placement[e.Nickname] = e.Host
		}
	}
	rt.SetPlacement(placement)
	if chaos.HasActionFaults(st.Nodes) {
		if err := chaos.ValidateSpecs(st.Nodes, m.hosts); err != nil {
			rt.Shutdown()
			return nil, err
		}
		chaos.Attach(rt, st.ChaosSeed)
	}
	if topo.Owner(m.ref) == "" {
		// Nobody owns the reference host (a typo'd ownership table): no
		// process would ever coordinate and the cluster would hang in
		// Serve. Fail fast, locally, on every member.
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: no peer owns reference host %q", m.peer, m.ref)
	}
	m.rt = rt
	rt.SetTransportHook(m.hook)
	if err := rt.StartTransport(); err != nil {
		rt.Shutdown()
		return nil, fmt.Errorf("campaign: cluster member %q: %w", m.peer, err)
	}
	return m, nil
}

// Runtime returns the member's runtime (for artifact emission by tools).
func (m *Member) Runtime() *core.Runtime { return m.rt }

// Coordinator reports whether this member owns the reference host and so
// must drive the protocol with RunStudy.
func (m *Member) Coordinator() bool { return m.tr.Topology().Owner(m.ref) == m.peer }

// Close shuts the member's runtime down (the transport stays the
// caller's to close).
func (m *Member) Close() { m.rt.Shutdown() }

// Quit unblocks Serve without a stop frame — the in-process runner's
// shutdown path, where a lost datagram must not wedge the study.
func (m *Member) Quit() {
	m.quitOnce.Do(func() { close(m.quit) })
}

// memberAlign is one peer's process-clock alignment: the NTP-style
// midpoint offset θ = ((t1-t0)+(t2-t3))/2 from the sync round with the
// smallest round-trip time, the standard minimum-delay filter.
type memberAlign struct {
	offsetNS int64 // member process clock minus coordinator process clock
	rttNS    int64 // round-trip time of the round behind the estimate
	ok       bool
}

// hook receives the transport frames core does not consume. Sync pings
// are answered inline — they only read a clock; everything else lands in
// the inbox for the protocol loops.
func (m *Member) hook(msg transport.Message) {
	if msg.Kind == transport.KindSyncPing {
		w, err := decodeSyncWire(msg.Payload)
		if err != nil {
			return
		}
		clk := m.rt.HostClock(msg.ToHost)
		if clk == nil {
			return
		}
		w.RemoteRecv = int64(clk.Now())
		w.ProcRecv = m.rt.Clock().Now().UnixNano()
		w.RemoteSend = int64(clk.Now())
		w.ProcSend = m.rt.Clock().Now().UnixNano()
		reply := transport.Message{
			Kind:    transport.KindSyncPong,
			To:      msg.From,
			ToHost:  msg.ToHost, // which remote clock answered
			Payload: encodeSyncWire(w),
		}
		if err := m.tr.SendPeer(msg.From, reply); err != nil {
			m.rt.Logf("campaign: cluster %s: sync pong: %v", m.peer, err)
		}
		return
	}
	select {
	case m.inbox <- msg:
	default: // a full inbox behaves like a lossy network; senders retry
	}
}

// localEntries returns the placement entries whose hosts this member
// owns.
func (m *Member) localEntries() []spec.NodeEntry {
	topo := m.tr.Topology()
	var out []spec.NodeEntry
	for _, e := range m.st.Placement {
		if e.Host != "" && topo.Owner(e.Host) == m.peer {
			out = append(out, e)
		}
	}
	return out
}

// collectResult snapshots this member's runtime artifacts after a seal.
func (m *Member) collectResult() (locals []*timeline.Local, outcomes map[string]string) {
	return snapshotTimelines(m.rt.Store().All()), m.rt.Outcomes()
}

// sendCtrl ships one protocol frame to a peer.
func (m *Member) sendCtrl(peer, op string, msg clusterMsg) {
	msg.Peer = m.peer
	frame := transport.Message{Kind: transport.KindCtrl, From: m.peer, To: peer, State: op, Payload: encodeClusterMsg(msg)}
	if err := m.tr.SendPeer(peer, frame); err != nil {
		m.rt.Logf("campaign: cluster %s: sending %s to %s: %v", m.peer, op, peer, err)
	}
}

// broadcastCtrl ships one protocol frame to every peer.
func (m *Member) broadcastCtrl(op string, msg clusterMsg) {
	for _, p := range m.tr.Topology().PeerNames() {
		m.sendCtrl(p, op, msg)
	}
}

// Serve follows the coordinator's protocol until a stop frame, Quit, or
// ctx cancellation. Non-coordinator members run this on their main
// goroutine.
func (m *Member) Serve(ctx context.Context) error {
	stopWatch := watchCancel(ctx, m.Quit)
	defer stopWatch()
	var (
		index     = -1 // experiment being served
		started   bool
		sup       *supervisor
		sealed    bool
		doneQuit  chan struct{}
		resFrames []clusterMsg

		mtr         *obs.Trace // this member's lane for the current experiment
		startAt     time.Time
		traceFrames []clusterMsg
		metricsIdx  = -1 // index the cached metrics frames answer
		metricsFr   []clusterMsg
	)
	stopDone := func() {
		if doneQuit != nil {
			close(doneQuit)
			doneQuit = nil
		}
	}
	defer stopDone()
	for {
		var msg transport.Message
		select {
		case msg = <-m.inbox:
		case <-m.quit:
			if sup != nil {
				sup.stop()
				sup = nil
			}
			return nil
		}
		cm, err := decodeClusterMsg(msg.Payload)
		if err != nil {
			continue
		}
		switch msg.State {
		case opReset:
			if cm.Index < index {
				continue // a straggler from a finished experiment; never roll back
			}
			if cm.Index > index {
				stopDone()
				if sup != nil {
					sup.stop()
					sup = nil
				}
				m.rt.SealExperiment()
				m.rt.KillAll()
				m.rt.Wait(time.Second)
				m.rt.ResetExperiment()
				m.tr.SetEpoch(uint64(cm.Index) + 1)
				index, started, sealed, resFrames = cm.Index, false, false, nil
				// Fresh trace lane for the new experiment, when the
				// coordinator will pull one and we can record one.
				m.rt.SetTrace(nil)
				mtr, startAt, traceFrames = nil, time.Time{}, nil
				if cm.TraceOn {
					if m.c.Obs.CapturesTraces() {
						mtr = obs.NewTrace(cm.Point, cm.Index)
						m.rt.SetTrace(mtr)
					} else if !m.traceWarned {
						m.traceWarned = true
						m.c.Obs.Logf(obs.Warn, "campaign",
							"cluster %s: coordinator requests tracing but this member has no trace buffer enabled (run lokid with -trace or -out)", m.peer)
					}
				}
			}
			m.sendCtrl(cm.Peer, opResetOK, clusterMsg{Index: index})
		case opStart:
			if cm.Index != index || started {
				continue
			}
			started = true
			if mtr != nil {
				startAt = m.rt.Clock().Now()
			}
			if m.st.Restarts != nil {
				sup = startSupervisor(m.rt, *m.st.Restarts)
			}
			m.rt.AddPlacement(m.localEntries())
			for _, e := range m.localEntries() {
				if !e.AutoStart() {
					continue
				}
				if _, err := m.rt.StartNode(e.Nickname, e.Host); err != nil {
					m.rt.Logf("campaign: cluster %s: starting %s: %v", m.peer, e.Nickname, err)
				}
			}
			// Report completion, and keep reporting until sealed: the
			// datagram may be lost.
			doneQuit = make(chan struct{})
			go m.reportDone(cm.Peer, index, doneQuit)
		case opSeal:
			if cm.Index != index {
				continue
			}
			if !sealed {
				sealed = true
				stopDone()
				if sup != nil {
					sup.stop()
					sup = nil
				}
				m.rt.SealExperiment()
				m.rt.KillAll()
				m.rt.Wait(time.Second)
				if mtr != nil {
					if !startAt.IsZero() {
						mtr.Span("experiment", startAt, m.rt.Clock().Now())
					}
					m.rt.SetTrace(nil) // the lane is final; stop recording
				}
				locals, outcomes := m.collectResult()
				resFrames = resultFrames(m.rt.Logf, index, locals, outcomes)
			}
			for _, f := range resFrames {
				m.sendCtrl(cm.Peer, opResult, f)
			}
		case opTrace:
			// The lane is only final after seal; an early pull (frame
			// reorder) is ignored and the coordinator's retry rides it out.
			if cm.Index != index || !sealed {
				continue
			}
			if traceFrames == nil {
				doc, err := mtr.EncodeString() // nil lane encodes to ""
				if err != nil {
					m.rt.Logf("campaign: cluster %s: encoding trace: %v", m.peer, err)
					doc = ""
				}
				traceFrames = chunkDoc(index, doc, func(f *clusterMsg, chunk string) { f.Trace = chunk })
			}
			for _, f := range traceFrames {
				m.sendCtrl(cm.Peer, opTraceRes, f)
			}
		case opMetrics:
			// Snapshot once per requested index so retried pulls always see
			// the same chunk set (a mid-collection change in Total would
			// corrupt reassembly). Local series only: imported snapshots
			// must never bounce back to the coordinator.
			if metricsFr == nil || metricsIdx != cm.Index {
				doc := ""
				if m.c.Obs != nil && m.c.Obs.Metrics != nil {
					if b, err := json.Marshal(m.c.Obs.Metrics.LocalSnapshot()); err == nil {
						doc = string(b)
					}
				}
				metricsIdx = cm.Index
				metricsFr = chunkDoc(cm.Index, doc, func(f *clusterMsg, chunk string) { f.Metrics = chunk })
			}
			for _, f := range metricsFr {
				m.sendCtrl(cm.Peer, opMetricsRes, f)
			}
		case opStop:
			if sup != nil {
				sup.stop()
				sup = nil
			}
			return nil
		}
	}
}

// reportDone waits for the member's local nodes to finish, then sends
// done frames until quit closes (the seal acknowledges them).
func (m *Member) reportDone(coordinator string, index int, quit chan struct{}) {
	completed := m.rt.Wait(m.timeout)
	for {
		m.sendCtrl(coordinator, opDone, clusterMsg{Index: index, Completed: completed})
		select {
		case <-quit:
			return
		case <-time.After(clusterRetry * 4):
		}
	}
}

// resultFrames encodes a member's artifacts as result frames (the §3.5.6
// text format is the wire format), with outcomes repeated in each so any
// one frame carries them. A timeline larger than one frame's budget is
// chunked across consecutive frames (More marks a continuation) rather
// than dropped — the 60 KB frame limit is a transport property, not a
// bound on how much a long experiment may record. Only a timeline that
// cannot be encoded at all is reported in Dropped (it is not counted in
// Total, or the coordinator would wait forever for a frame that can never
// arrive), and the coordinator then discards the experiment: a machine's
// injections cannot be verified from a global timeline that machine is
// missing from, so accepting would be unsound.
func resultFrames(logf func(string, ...interface{}), index int, locals []*timeline.Local, outcomes map[string]string) []clusterMsg {
	// Leave generous headroom under transport.MaxFrame for the gob
	// envelope, outcome map, and frame header.
	const maxTimelineWire = transport.MaxFrame - 4*1024
	frames := make([]clusterMsg, 0, len(locals)+1)
	var dropped []string
	for _, tl := range locals {
		doc, err := timeline.EncodeString(tl)
		if err != nil {
			logf("campaign: cluster result: timeline %q not encodable: %v", tl.Owner, err)
			dropped = append(dropped, tl.Owner)
			continue
		}
		if len(doc) > maxTimelineWire {
			logf("campaign: cluster result: timeline %q is %d bytes, chunking across %d frames",
				tl.Owner, len(doc), (len(doc)+maxTimelineWire-1)/maxTimelineWire)
		}
		for start := 0; start < len(doc); start += maxTimelineWire {
			end := start + maxTimelineWire
			if end > len(doc) {
				end = len(doc)
			}
			frames = append(frames, clusterMsg{
				Index:    index,
				Timeline: doc[start:end],
				More:     end < len(doc),
				Outcomes: outcomes,
			})
		}
	}
	if len(frames) == 0 {
		frames = append(frames, clusterMsg{Index: index, Outcomes: outcomes})
	}
	for i := range frames {
		frames[i].Seq = i
		frames[i].Total = len(frames)
		frames[i].Dropped = dropped
	}
	return frames
}

// chunkDoc splits one encoded document across protocol frames using the
// timeline chunking discipline: Seq/Total number the peer's frame set,
// More marks a continuation. An empty document still produces one frame,
// so the collector always completes. assign stores each chunk in the
// frame field the op uses (Trace, Metrics).
func chunkDoc(index int, doc string, assign func(f *clusterMsg, chunk string)) []clusterMsg {
	const maxWire = transport.MaxFrame - 4*1024
	var frames []clusterMsg
	for start := 0; ; start += maxWire {
		end := start + maxWire
		if end > len(doc) {
			end = len(doc)
		}
		f := clusterMsg{Index: index, More: end < len(doc)}
		assign(&f, doc[start:end])
		frames = append(frames, f)
		if end >= len(doc) {
			break
		}
	}
	for i := range frames {
		frames[i].Seq = i
		frames[i].Total = len(frames)
	}
	return frames
}

// joinDoc reassembles a chunked document from one peer's Seq-ordered
// frame set.
func joinDoc(frames []clusterMsg, get func(clusterMsg) string) string {
	var b strings.Builder
	for _, f := range frames {
		b.WriteString(get(f))
	}
	return b.String()
}

// flushMembers runs one reset barrier at the given index without running
// an experiment: every member acknowledges (resetting idempotently if it
// was behind), proving it is up and listening. The journaled-resume fast
// paths use it when zero experiments execute — otherwise stopCluster's
// five best-effort broadcasts could all fire before a slow-starting
// member process binds its socket, stranding it in Serve forever. (A
// normal run gets this guarantee from the first experiment's reset
// barrier.) Failure is logged, not fatal: members that are genuinely
// gone must not wedge a resume that needs nothing from them.
func (m *Member) flushMembers(index int) {
	peers := m.tr.Topology().PeerNames()
	if len(peers) == 0 {
		return
	}
	if _, err := m.await(opResetOK, index, asSet(peers), nil, func() {
		m.broadcastCtrl(opReset, clusterMsg{Index: index})
	}); err != nil {
		m.rt.Logf("campaign: cluster %s: resume flush barrier: %v", m.peer, err)
	}
}

// stopCluster broadcasts the stop instruction several times: stop is the
// one instruction with no observable effect to retry against, so repeat
// sends stand in for the re-broadcast-until-acknowledged rule the rest
// of the protocol follows. (The in-process runner also has the direct
// Quit escape hatch; a real lokid member additionally quits on SIGINT.)
func (m *Member) stopCluster() {
	for i := 0; i < 5; i++ {
		m.broadcastCtrl(opStop, clusterMsg{})
		time.Sleep(clusterRetry)
	}
}

// ensureJournal opens the member's own journal from the campaign's
// Checkpoint when no binding was handed down by an in-process engine —
// the stand-alone coordinator path (cmd/lokid). The returned closer is
// a no-op when nothing was opened here.
func (m *Member) ensureJournal() (func(), error) {
	if m.sj != nil || m.c.Checkpoint == nil {
		return func() {}, nil
	}
	j, err := openCampaignJournal(m.c)
	if err != nil {
		return nil, err
	}
	m.sj = j.study(m.c, m.st, m.st.Name)
	return func() { j.Close() }, nil
}

// coordinate wraps one coordinator run in the protocol's setup and
// teardown. Cancelling ctx quits the member protocol (awaits unblock at
// once, like a SIGINT drain). After a successful body the members are
// sealed at index seal, one past the last experiment: a flush barrier
// when body ran nothing (see flushMembers), then the metrics pull that
// folds every member's registry into ours, so the campaign metrics.json
// and /metrics expose one member-labeled fleet surface. The stop
// instruction is broadcast on every exit.
func (m *Member) coordinate(ctx context.Context, seal int, body func() (ran bool, err error)) error {
	stopWatch := watchCancel(ctx, m.Quit)
	defer stopWatch()
	defer m.stopCluster()
	ran, err := body()
	if err != nil {
		return err
	}
	if !ran {
		m.flushMembers(seal)
	}
	m.pullMemberMetrics(seal)
	return nil
}

// RunStudy drives the whole study from the coordinator member: the shared
// study loop with one worker, this member's runOne, so the records match
// the pool's in shape, journaling and progress events. Journaled
// experiments are skipped (the members never see a reset for them);
// fresh records are journaled as their analysis completes, so a crashed
// coordinator resumes at the first missing experiment. Cancelling ctx
// quits the member protocol and returns ctx.Err().
func (m *Member) RunStudy(ctx context.Context) (*StudyResult, error) {
	closeJournal, err := m.ensureJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal()
	var sr *StudyResult
	err = m.coordinate(ctx, m.st.Experiments, func() (ran bool, err error) {
		sr, err = driveStudy(ctx, m.c, m.st, m.sj, m.peer, 1, func() (runner, func(), error) {
			ran = true
			return m.runOne, nil, nil
		})
		return ran, err
	})
	return sr, err
}

// RunOne runs a single clustered experiment (cmd/lokid's one-experiment
// mode) through the shared single-shot pipeline, returning the analyzed
// record plus the raw artifacts. With a Checkpoint, a journaled experiment
// is returned — raw artifacts included, so the caller can still write its
// files — without running it on the cluster. Cancelling ctx quits the
// member protocol and returns ctx.Err().
func (m *Member) RunOne(ctx context.Context) (*ExperimentRecord, []clocksync.StampedMessage, []*timeline.Local, error) {
	closeJournal, err := m.ensureJournal()
	if err != nil {
		return nil, nil, nil, err
	}
	defer closeJournal()
	var (
		rec    *ExperimentRecord
		stamps []clocksync.StampedMessage
		locals []*timeline.Local
	)
	err = m.coordinate(ctx, 1, func() (ran bool, err error) {
		rec, stamps, locals, err = runSingle(ctx, m.c, m.st, m.sj, func(index int) (*rawExperiment, error) {
			ran = true
			return m.runOne(index)
		})
		return ran, err
	})
	return rec, stamps, locals, err
}

// runOne executes one experiment's runtime phase across the cluster.
func (m *Member) runOne(index int) (*rawExperiment, error) {
	peers := m.tr.Topology().PeerNames()
	point := studyPoint(m.c, m.st, m.sj)

	// Clustered runs are always real-time, so the coordinator's trace uses
	// its runtime clock directly; member lanes are pulled after the seal
	// and rebased onto this clock by the sync-round offset estimates.
	ph := startPhases(m.c, m.rt, point, index)
	defer ph.stop()
	m.align = make(map[string]memberAlign, len(peers))

	// Reset barrier: every member on a fresh testbed and the new epoch
	// before any traffic flows. The reset frame carries the trace context:
	// the point name members label their lanes with and whether a trace
	// will be pulled for this experiment.
	m.rt.ResetExperiment()
	m.tr.SetEpoch(uint64(index) + 1)
	if _, err := m.await(opResetOK, index, asSet(peers), nil, func() {
		m.broadcastCtrl(opReset, clusterMsg{Index: index, Point: point, TraceOn: ph.tr != nil})
	}); err != nil {
		return nil, fmt.Errorf("reset barrier: %w", err)
	}
	ph.lap(stepReset)

	// Pre-experiment synchronization mini-phase: direct reads for local
	// hosts, socket round trips for remote ones. A failed phase (loss
	// burst on a real network) discards this experiment at analysis, but
	// the protocol still runs it end to end so every member stays in
	// lockstep for the next one.
	var syncErr string
	pre, err := m.clusterStamps()
	if err != nil {
		syncErr = fmt.Sprintf("pre-sync: %v", err)
	}
	ph.lap(stepSyncPre)

	// Start everywhere (idempotent; re-broadcast rides out loss), then
	// wait for every member's local completion and our own.
	var sup *supervisor
	if m.st.Restarts != nil {
		sup = startSupervisor(m.rt, *m.st.Restarts)
	}
	m.rt.AddPlacement(m.localEntries())
	for _, e := range m.localEntries() {
		if !e.AutoStart() {
			continue
		}
		if _, err := m.rt.StartNode(e.Nickname, e.Host); err != nil {
			if sup != nil {
				sup.stop()
			}
			return nil, err
		}
	}
	ownDone := make(chan bool, 1)
	go func() { ownDone <- m.rt.Wait(m.timeout) }()

	completed := true
	dones, err := m.await(opDone, index, asSet(peers), ownDone, func() {
		m.broadcastCtrl(opStart, clusterMsg{Index: index})
	})
	if err != nil {
		completed = false // hung somewhere: abort, discard (§3.5.1)
	}
	for _, d := range dones {
		if !d.Completed {
			completed = false
		}
	}
	if sup != nil {
		sup.stop()
	}

	// Seal everywhere and collect results. Our own runtime seals first so
	// no straggler restarts into a finished experiment.
	m.rt.SealExperiment()
	if len(m.rt.LiveNodes()) > 0 {
		m.rt.KillAll()
		m.rt.Wait(time.Second)
	}
	results, err := m.collectFrames(index, peers, opSeal, opResult)
	if err != nil {
		return nil, err
	}
	ph.lap(stepExperiment)

	// Post-experiment synchronization mini-phase.
	post, err := m.clusterStamps()
	if err != nil && syncErr == "" {
		syncErr = fmt.Sprintf("post-sync: %v", err)
	}
	ph.lap(stepSyncPost)

	// A quit protocol cuts the phase short in ways that read like network
	// faults (lost sync rounds, missing done reports): never let such a run
	// pass for a measured experiment, or a cancelled study would journal a
	// verdict its resume then trusts.
	select {
	case <-m.quit:
		return nil, fmt.Errorf("member quit during experiment %d", index)
	default:
	}

	// Pull each member's trace lane now that both sync phases have
	// contributed offset estimates; merged spans land in the same
	// traces/<point>/expNNN.trace.jsonl artifact the analysis stage writes.
	m.collectMemberTraces(index, peers, ph.tr)

	ownLocals, ownOutcomes := m.collectResult()
	locals := append([]*timeline.Local(nil), ownLocals...)
	outcomes := make(map[string]string, len(ownOutcomes))
	for k, v := range ownOutcomes {
		outcomes[k] = v
	}
	var lost []string
	for peer, frames := range results {
		// Frames arrive in Seq order; a chunked timeline spans consecutive
		// frames, terminated by the first frame without More.
		var pending strings.Builder
		for i, f := range frames {
			for k, v := range f.Outcomes {
				outcomes[k] = v
			}
			if i == 0 {
				lost = append(lost, f.Dropped...)
			}
			if f.Timeline == "" && pending.Len() == 0 {
				continue
			}
			pending.WriteString(f.Timeline)
			if f.More {
				continue
			}
			tl, err := timeline.DecodeString(pending.String())
			if err != nil {
				return nil, fmt.Errorf("decoding peer %s timeline: %w", peer, err)
			}
			pending.Reset()
			locals = append(locals, tl)
		}
		if pending.Len() > 0 {
			return nil, fmt.Errorf("peer %s result stream ended mid-timeline (%d bytes pending)", peer, pending.Len())
		}
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].Owner < locals[j].Owner })
	sort.Strings(lost)

	return &rawExperiment{
		index:         index,
		completed:     completed,
		outcomes:      outcomes,
		preStamps:     pre,
		postStamps:    post,
		locals:        locals,
		lostTimelines: lost,
		syncError:     syncErr,
		ref:           m.ref,
		trace:         ph.tr,
		traceEnd:      ph.last,
	}, nil
}

// await re-runs send until one frame of the wanted op and index has
// arrived from every expected peer (own, when non-nil, stands for this
// member's local completion). It returns the collected frames.
func (m *Member) await(op string, index int, expect map[string]bool, own chan bool, send func()) ([]clusterMsg, error) {
	var out []clusterMsg
	ownPending := own != nil
	deadline := time.Now().Add(m.timeout + clusterAckTimeout)
	send()
	ticker := time.NewTicker(clusterRetry)
	defer ticker.Stop()
	for len(expect) > 0 || ownPending {
		select {
		case <-m.quit:
			return out, fmt.Errorf("member quit while awaiting %s", op)
		case ok := <-own:
			ownPending = false
			out = append(out, clusterMsg{Peer: m.peer, Index: index, Completed: ok})
		case msg := <-m.inbox:
			cm, err := decodeClusterMsg(msg.Payload)
			if err != nil || msg.State != op || cm.Index != index {
				continue
			}
			if expect[cm.Peer] {
				delete(expect, cm.Peer)
				out = append(out, cm)
			}
		case <-ticker.C:
			if time.Now().After(deadline) {
				return out, fmt.Errorf("timed out awaiting %s from %v (own pending: %v)", op, keys(expect), ownPending)
			}
			if tm := m.c.Obs.TransportMetrics(m.tr.Name()); tm != nil {
				tm.Retries.Inc()
			}
			send()
		}
	}
	return out, nil
}

// collectFrames re-broadcasts sendOp until every peer's full respOp frame
// set has arrived — the seal/result collection discipline, shared by the
// trace and metrics pulls.
func (m *Member) collectFrames(index int, peers []string, sendOp, respOp string) (map[string][]clusterMsg, error) {
	got := make(map[string]map[int]clusterMsg, len(peers))
	for _, p := range peers {
		got[p] = make(map[int]clusterMsg)
	}
	complete := func(p string) bool {
		fr := got[p]
		if len(fr) == 0 {
			return false
		}
		for _, f := range fr {
			if len(fr) < f.Total {
				return false
			}
		}
		return true
	}
	allDone := func() bool {
		for _, p := range peers {
			if !complete(p) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(clusterAckTimeout)
	m.broadcastCtrl(sendOp, clusterMsg{Index: index})
	ticker := time.NewTicker(clusterRetry)
	defer ticker.Stop()
	for !allDone() {
		select {
		case <-m.quit:
			return nil, fmt.Errorf("member quit while collecting %s", respOp)
		case msg := <-m.inbox:
			cm, err := decodeClusterMsg(msg.Payload)
			if err != nil || msg.State != respOp || cm.Index != index {
				continue
			}
			if fr, ok := got[cm.Peer]; ok {
				fr[cm.Seq] = cm
			}
		case <-ticker.C:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("timed out collecting %s (have %v)", respOp, resultCounts(got))
			}
			if tm := m.c.Obs.TransportMetrics(m.tr.Name()); tm != nil {
				tm.Retries.Inc()
			}
			m.broadcastCtrl(sendOp, clusterMsg{Index: index})
		}
	}
	out := make(map[string][]clusterMsg, len(got))
	for p, fr := range got {
		seqs := make([]int, 0, len(fr))
		for s := range fr {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		for _, s := range seqs {
			out[p] = append(out[p], fr[s])
		}
	}
	return out, nil
}

// collectMemberTraces pulls every member's trace lane for the sealed
// experiment and merges it into tr, rebasing each lane by the negated
// offset estimate from this experiment's sync rounds. Tracing is
// best-effort observability: a lane that cannot be fetched or decoded is
// logged and skipped, never failing the experiment.
func (m *Member) collectMemberTraces(index int, peers []string, tr *obs.Trace) {
	if tr == nil || len(peers) == 0 {
		return
	}
	results, err := m.collectFrames(index, peers, opTrace, opTraceRes)
	if err != nil {
		m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: collecting member traces: %v", m.peer, err)
		return
	}
	for _, peer := range sortedResultPeers(results) {
		doc := joinDoc(results[peer], func(f clusterMsg) string { return f.Trace })
		mt, err := obs.DecodeTraceString(doc)
		if err != nil {
			m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: decoding %s trace: %v", m.peer, peer, err)
			continue
		}
		if mt == nil {
			continue // the member has no trace buffer (it warned locally)
		}
		var offset time.Duration
		if a, ok := m.align[peer]; ok && a.ok {
			offset = -time.Duration(a.offsetNS)
		}
		tr.Merge(peer, mt, offset)
		if mm := m.c.Obs.MemberMetrics(peer); mm != nil {
			spans, events := mt.Counts()
			mm.TraceSpans.Add(uint64(spans))
			mm.TraceEvents.Add(uint64(events))
		}
	}
}

// pullMemberMetrics fetches every member's registry snapshot and imports
// it into the coordinator's registry under a member label. Called at
// study seal; best-effort like the trace pull.
func (m *Member) pullMemberMetrics(index int) {
	if m.c.Obs == nil || m.c.Obs.Metrics == nil {
		return
	}
	peers := m.tr.Topology().PeerNames()
	if len(peers) == 0 {
		return
	}
	results, err := m.collectFrames(index, peers, opMetrics, opMetricsRes)
	if err != nil {
		m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: pulling member metrics: %v", m.peer, err)
		return
	}
	for _, peer := range sortedResultPeers(results) {
		doc := joinDoc(results[peer], func(f clusterMsg) string { return f.Metrics })
		if doc == "" {
			continue // the member runs without a registry
		}
		var snap obs.Snapshot
		if err := json.Unmarshal([]byte(doc), &snap); err != nil {
			m.c.Obs.Logf(obs.Warn, "campaign", "cluster %s: decoding %s metrics: %v", m.peer, peer, err)
			continue
		}
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
			continue
		}
		m.c.Obs.Metrics.ImportSnapshot(peer, snap)
	}
}

func sortedResultPeers(results map[string][]clusterMsg) []string {
	out := make([]string, 0, len(results))
	for p := range results {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// clusterStamps runs one synchronization mini-phase across the cluster:
// the in-memory exchange for hosts local to the coordinator, and real
// socket round trips — send a ping, read the remote clock on receipt,
// read the reference clock when the pong lands — for remote ones. Socket
// transit is genuinely positive, which is the property the convex-hull
// estimator needs; socket jitter is exactly the measurement noise the
// thesis's getstamps faced on its LAN.
func (m *Member) clusterStamps() ([]clocksync.StampedMessage, error) {
	cfg := m.c.Sync
	cfg.setDefaults()
	refClock := m.rt.HostClock(m.ref)
	if refClock == nil {
		return nil, fmt.Errorf("campaign: coordinator %q does not own reference host %q", m.peer, m.ref)
	}
	// Local hosts: the ordinary in-memory exchange.
	msgs := exchangeStamps(m.rt, m.ref, cfg)
	// Remote hosts: socket ping-pong. The sequence number is monotonic
	// across mini-phases and experiments, so a pong that straggled past
	// its round's timeout can never be paired with a later round's
	// reference stamps (which would fabricate a negative transit and
	// wrongly discard the experiment).
	topo := m.tr.Topology()
	tm := m.c.Obs.TransportMetrics(m.tr.Name())
	proc := m.rt.Clock()
	for _, host := range m.hosts {
		if topo.Owner(host) == m.peer {
			continue
		}
		peer := topo.Owner(host)
		mm := m.c.Obs.MemberMetrics(peer)
		okRounds := 0
		for i := 0; i < cfg.Messages; i++ {
			m.syncSeq++
			seq := m.syncSeq
			var rtt time.Time
			if tm != nil {
				rtt = obs.Now()
			}
			procSend := proc.Now()
			refSend := refClock.Now()
			ping := transport.Message{
				Kind:    transport.KindSyncPing,
				From:    m.peer,
				ToHost:  host,
				Payload: encodeSyncWire(syncWire{Seq: seq}),
			}
			if err := m.tr.SendHost(host, ping); err != nil {
				return nil, fmt.Errorf("campaign: sync ping to %q: %w", host, err)
			}
			pong, ok := m.awaitPong(host, seq)
			if !ok {
				if mm != nil {
					mm.SyncRoundsLost.Inc()
				}
				continue // a lost round trip only thins the sample set
			}
			refRecv := refClock.Now()
			procRecv := proc.Now()
			if tm != nil {
				tm.RTTSeconds.ObserveSince(rtt)
			}
			if mm != nil {
				mm.SyncRoundsOK.Inc()
			}
			// Process-clock alignment for trace-lane merging: NTP midpoint
			// offset θ = ((t1-t0)+(t2-t3))/2, kept from the round with the
			// smallest RTT (the standard minimum-delay filter). Orthogonal
			// to the virtual-clock convex hull the analysis phase fits.
			if pong.ProcRecv != 0 || pong.ProcSend != 0 {
				pt0, pt3 := procSend.UnixNano(), procRecv.UnixNano()
				roundRTT := (pt3 - pt0) - (pong.ProcSend - pong.ProcRecv)
				off := ((pong.ProcRecv - pt0) + (pong.ProcSend - pt3)) / 2
				if a, exists := m.align[peer]; !exists || !a.ok || roundRTT < a.rttNS {
					m.align[peer] = memberAlign{offsetNS: off, rttNS: roundRTT, ok: true}
					if mm != nil {
						mm.ClockOffsetNS.Set(off)
						mm.ClockRTTNS.Set(roundRTT)
					}
				}
			}
			msgs = append(msgs,
				clocksync.StampedMessage{
					SendHost: m.ref, RecvHost: host,
					SendTime: refSend, RecvTime: vclock.Ticks(pong.RemoteRecv),
				},
				clocksync.StampedMessage{
					SendHost: host, RecvHost: m.ref,
					SendTime: vclock.Ticks(pong.RemoteSend), RecvTime: refRecv,
				})
			okRounds++
			clock.SpinWait(m.rt.Clock(), cfg.Spacing)
		}
		// Require most of the configured rounds only up to the point the
		// estimator needs: a user asking for 1-2 rounds gets the same
		// (likely unbounded, analysis-discarded) geometry as in-process,
		// not a study abort.
		need := cfg.Messages
		if need > 3 {
			need = 3
		}
		if okRounds < need {
			return nil, fmt.Errorf("campaign: sync with host %q: only %d of %d round trips survived", host, okRounds, cfg.Messages)
		}
	}
	return msgs, nil
}

// awaitPong waits for the numbered pong from the named host.
func (m *Member) awaitPong(host string, seq int) (syncWire, bool) {
	deadline := time.After(clusterPongTimeout)
	for {
		select {
		case <-m.quit:
			return syncWire{}, false
		case msg := <-m.inbox:
			if msg.Kind != transport.KindSyncPong || msg.ToHost != host {
				continue
			}
			w, err := decodeSyncWire(msg.Payload)
			if err != nil || w.Seq != seq {
				continue
			}
			return w, true
		case <-deadline:
			return syncWire{}, false
		}
	}
}

// RunClustered executes the study with every campaign host in its own
// runtime, one transport endpoint per host, connected over the named
// transport kind on 127.0.0.1 — the "loopback multi-process" topology,
// with process boundaries replaced by runtime boundaries so it can run
// (and be raced) inside one test binary. cmd/lokid wires real OS
// processes to the same Member protocol. Cancelling ctx quits the member
// protocol and returns ctx.Err().
func RunClustered(ctx context.Context, c *Campaign, st *Study, kind string) (*StudyResult, error) {
	j, err := openCampaignJournal(c)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	return runClustered(ctx, c, st, kind, j.study(c, st, st.Name))
}

// runClustered is RunClustered with the checkpoint binding handed down by
// whichever engine already opened the journal (Run, RunMatrix).
func runClustered(ctx context.Context, c *Campaign, st *Study, kind string, sj *studyJournal) (*StudyResult, error) {
	var sr *StudyResult
	err := withLoopbackCluster(c, st, kind, func(coordinator *Member) error {
		coordinator.sj = sj
		var err error
		sr, err = coordinator.RunStudy(ctx)
		return err
	})
	return sr, err
}

// withLoopbackCluster builds the loopback cluster — one endpoint and one
// member per campaign host — serves every non-coordinator member on its
// own goroutine, and hands the coordinator to drive. Teardown unblocks
// and drains the Serve goroutines on every exit path (a lost stop
// datagram or an early error must not wedge or leak them) before shutting
// runtimes down.
func withLoopbackCluster(c *Campaign, st *Study, kind string, drive func(coordinator *Member) error) error {
	hosts := make(map[string]string, len(c.Hosts))
	for _, h := range c.Hosts {
		hosts[h.Name] = h.Name // peer per host, peer name = host name
	}
	eps, err := transport.NewLoopbackCluster(kind, hosts)
	if err != nil {
		return err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	var coordinator *Member
	members := make([]*Member, 0, len(eps))
	serveErr := make(chan error, len(eps))
	serving := 0
	defer func() {
		for _, m := range members {
			m.Quit()
		}
		for i := 0; i < serving; i++ {
			<-serveErr
		}
		for _, m := range members {
			m.Close()
		}
		if coordinator != nil {
			coordinator.Close()
		}
	}()
	for _, peer := range sortedPeers(eps) {
		m, err := NewMember(c, st, eps[peer])
		if err != nil {
			return err
		}
		if m.Coordinator() {
			coordinator = m
			continue
		}
		members = append(members, m)
		serving++
		go func(m *Member) { serveErr <- m.Serve(context.Background()) }(m)
	}
	if coordinator == nil {
		return fmt.Errorf("campaign: no member owns reference host")
	}
	return drive(coordinator)
}

func sortedPeers(eps map[string]transport.Transport) []string {
	out := make([]string, 0, len(eps))
	for p := range eps {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func asSet(ss []string) map[string]bool {
	out := make(map[string]bool, len(ss))
	for _, s := range ss {
		out[s] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func resultCounts(got map[string]map[int]clusterMsg) map[string]int {
	out := make(map[string]int, len(got))
	for p, fr := range got {
		out[p] = len(fr)
	}
	return out
}
