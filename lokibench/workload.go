package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	loki "repro"
	"repro/internal/analysis"
)

//go:embed workloads/*.json
var templates embed.FS

// workload is one benchmark input family. Its campaign file is a frozen
// template under workloads/; the benchmark seed only picks the study or
// matrix seeds, so every run of a workload does the same kind of work.
type workload struct {
	name string
	// journaled: the measured Run writes a checkpoint journal, and each
	// repetition's Resume over it is timed.
	journaled bool
	// cluster: the study runs as two WithCluster sessions over UDP
	// loopback (a coordinator owning h1, a member owning h2).
	cluster bool
	// copies > 1 runs that many copies of the template's study, each with
	// its own seed: a study's seed fixes much of its cost, so one Run
	// averages over several.
	copies int
	// expectAccepted is the verdict a record of the named study or
	// matrix point must get for the run to count as correct.
	expectAccepted func(point string) bool
	// check inspects a whole result beyond per-record verdicts.
	check func(res *loki.SessionResult) error
}

var workloads = []*workload{
	{
		name:           "election-virtual",
		copies:         10,
		expectAccepted: func(string) bool { return true },
	},
	{
		name:      "quorum-matrix-journaled",
		journaled: true,
		// The quorum-flash scenario chases the leader's microsecond-lived
		// QUORUM_PH from a remote host; analysis can never prove such an
		// injection in-state, so it is the matrix's negative control.
		expectAccepted: func(point string) bool { return !strings.HasPrefix(point, "quorum-flash") },
		check:          checkQuorumSafety,
	},
	{
		name:           "election-udp-cluster",
		cluster:        true,
		expectAccepted: func(string) bool { return true },
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// deriveSeed maps the benchmark seed, an input index and a slot to a
// positive campaign seed (splitmix64), so neighbouring benchmark seeds give
// unrelated inputs and no derived seed is 0 (which the campaign file
// treats as unset).
func deriveSeed(seed int64, input, slot int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(input)*0xD1B54A32D192ED03 + uint64(slot+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1)%1_000_000_000 + 1
}

// campaignFile parses the workload's template and seeds it for one input:
// the benchmark seed fixes the whole sequence of inputs a run uses, and
// successive repetitions take successive inputs. It is the first step of
// set-up.
func (w *workload) campaignFile(seed int64, input int) (*loki.CampaignFile, error) {
	data, err := templates.ReadFile("workloads/" + w.name + ".json")
	if err != nil {
		return nil, err
	}
	f, err := loki.ParseCampaignFile(data)
	if err != nil {
		return nil, err
	}
	if w.copies > 1 {
		st := f.Studies[0]
		f.Studies = nil
		for i := 0; i < w.copies; i++ {
			c := st
			c.Name = fmt.Sprintf("%s-%02d", st.Name, i)
			f.Studies = append(f.Studies, c)
		}
	}
	f.Seed = deriveSeed(seed, input, 0)
	for i := range f.Studies {
		f.Studies[i].Seed = deriveSeed(seed, input, 1+i)
	}
	if f.Matrix != nil {
		for i := range f.Matrix.Seeds {
			f.Matrix.Seeds[i] = deriveSeed(seed, input, 1+i)
		}
	}
	return f, nil
}

// experiments is the number of experiments one Run of the file executes.
func experimentsOf(f *loki.CampaignFile) int {
	if m := f.Matrix; m != nil {
		return len(m.Scenarios) * len(m.Latencies) * len(m.Seeds) * m.Study.Experiments
	}
	n := 0
	for _, st := range f.Studies {
		n += st.Experiments
	}
	return n
}

// openOpts are the observability and journal settings of one rig.
type openOpts struct {
	journal string // checkpoint directory; "" for none
	metrics bool
	traces  string // trace directory; "" for none
}

// rig is one opened workload: the session a Run drives and, for the
// cluster workload, the member session serving it.
type rig struct {
	main   *loki.Session
	member *loki.Session
}

// open builds the workload's session(s) from a campaign file: loki.Open
// and, for the cluster workload, binding both UDP endpoints.
func (w *workload) open(f *loki.CampaignFile, o openOpts) (*rig, error) {
	// options builds one session's options; only the coordinator (or sole
	// session) journals.
	options := func(journal bool, extra ...loki.Option) []loki.Option {
		opts := extra
		if o.metrics {
			opts = append(opts, loki.WithMetrics())
		}
		if o.traces != "" {
			opts = append(opts, loki.WithTracing(o.traces))
		}
		if journal && o.journal != "" {
			opts = append(opts, loki.WithCheckpoint(o.journal, false))
		}
		return opts
	}
	if !w.cluster {
		s, err := loki.Open(f, options(true)...)
		if err != nil {
			return nil, err
		}
		return &rig{main: s}, nil
	}
	peers, err := loopbackPeers("coordinator", "member")
	if err != nil {
		return nil, err
	}
	owners := map[string]string{"h1": "coordinator", "h2": "member"}
	cluster := func(name string) loki.Option {
		return loki.WithCluster(loki.ClusterConfig{Kind: loki.TransportUDP, Name: name, Peers: peers, Owners: owners})
	}
	r := &rig{}
	if r.main, err = loki.Open(f, options(true, cluster("coordinator"))...); err != nil {
		return nil, err
	}
	// A member always answers the coordinator's metrics pull, as lokid's
	// members do.
	if r.member, err = loki.Open(f, options(false, cluster("member"), loki.WithMetrics())...); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range []*loki.Session{r.main, r.member} {
		coord, err := s.ClusterCoordinator()
		if err != nil {
			r.close()
			return nil, err
		}
		if coord != (s == r.main) {
			r.close()
			return nil, fmt.Errorf("cluster roles inverted: coordinator session coordinates=%v", coord)
		}
	}
	return r, nil
}

// loopbackPeers reserves one free UDP port on 127.0.0.1 per peer.
func loopbackPeers(names ...string) (map[string]string, error) {
	peers := make(map[string]string, len(names))
	var held []net.PacketConn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for _, n := range names {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, c)
		peers[n] = c.LocalAddr().String()
	}
	return peers, nil
}

// run executes the campaign, or resumes it from its journal.
func (r *rig) run(ctx context.Context, resume bool) (*loki.SessionResult, error) {
	var res *loki.SessionResult
	err := r.drive(ctx, func(ctx context.Context) error {
		var err error
		if resume {
			res, err = r.main.Resume(ctx)
		} else {
			res, err = r.main.Run(ctx)
		}
		return err
	})
	return res, err
}

// drive calls fn on the main session. A cluster member serves
// concurrently; it leaves on the coordinator's stop broadcast, and is quit
// through its context should that be lost.
func (r *rig) drive(ctx context.Context, fn func(context.Context) error) error {
	if r.member == nil {
		return fn(ctx)
	}
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		_, err := r.member.Run(mctx)
		served <- err
	}()
	err := fn(ctx)
	select {
	case merr := <-served:
		if err == nil && merr != nil {
			err = fmt.Errorf("cluster member: %w", merr)
		}
	case <-time.After(5 * time.Second):
		cancel()
		<-served
	}
	return err
}

func (r *rig) close() {
	for _, s := range []*loki.Session{r.main, r.member} {
		if s != nil {
			s.Close()
		}
	}
}

// pointRecord is one experiment record with its study or matrix point.
type pointRecord struct {
	point string
	rec   *loki.ExperimentRecord
}

// recordsOf flattens a result into its records, in result order.
func recordsOf(res *loki.SessionResult) []pointRecord {
	if res == nil {
		return nil
	}
	var out []pointRecord
	if res.Matrix != nil {
		for _, pr := range res.Matrix.Points {
			for _, rec := range pr.Study.Records {
				out = append(out, pointRecord{pr.Point.Name(), rec})
			}
		}
	}
	if res.Campaign != nil {
		for _, sr := range res.Campaign.Studies {
			for _, rec := range sr.Records {
				out = append(out, pointRecord{sr.Name, rec})
			}
		}
	}
	return out
}

// verdicts counts a result's experiments and those that failed: aborted,
// discarded by an analysis error, or given a verdict other than the one
// the workload expects. Failures are described for the report.
func (w *workload) verdicts(res *loki.SessionResult, want int) (accepted, failed int, problems []string) {
	recs := recordsOf(res)
	if len(recs) != want {
		problems = append(problems, fmt.Sprintf("got %d records, want %d", len(recs), want))
		failed += abs(want - len(recs))
	}
	for _, pr := range recs {
		rec := pr.rec
		var why string
		switch {
		case rec == nil:
			why = "missing record"
		case !rec.Completed:
			why = "aborted"
		case rec.AnalysisError != "":
			why = "analysis error: " + rec.AnalysisError
		case rec.Accepted != w.expectAccepted(pr.point):
			why = fmt.Sprintf("accepted=%v, want %v", rec.Accepted, !rec.Accepted)
		}
		if rec != nil && rec.Accepted {
			accepted++
		}
		if why != "" {
			failed++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("%s: %s", pr.point, why))
			}
		}
	}
	if w.check != nil {
		if err := w.check(res); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return accepted, failed, problems
}

// checkQuorumSafety: over the accepted globals, the fault-free baseline
// always signs (liveness) and two-down, left below the signing threshold,
// never signs (safety).
func checkQuorumSafety(res *loki.SessionResult) error {
	if res.Matrix == nil {
		return fmt.Errorf("quorum: no matrix result")
	}
	for _, pr := range res.Matrix.Points {
		scenario := pr.Point.Scenario.Name
		for _, g := range pr.Study.AcceptedGlobals() {
			signed := false
			for _, e := range g.MachineEvents("leader") {
				if e.State == "SIGNED" {
					signed = true
				}
			}
			if scenario == "baseline" && !signed {
				return fmt.Errorf("quorum liveness: %s has an accepted round that never signed", pr.Point.Name())
			}
			if scenario == "two-down" && signed {
				return fmt.Errorf("quorum safety: %s signed below threshold", pr.Point.Name())
			}
		}
	}
	return nil
}

// digest is a canonical hash of a result's records: verdicts, outcomes,
// injection checks, clock bounds and the encoded global timeline. Under
// virtual time equal inputs must give equal digests, tracing on or off.
func digest(res *loki.SessionResult) (string, error) {
	h := sha256.New()
	for _, pr := range recordsOf(res) {
		rec := pr.rec
		if rec == nil {
			fmt.Fprintf(h, "%s nil\n", pr.point)
			continue
		}
		fmt.Fprintf(h, "%s %s %d completed=%v accepted=%v err=%q step=%v %v\n",
			pr.point, rec.Study, rec.Index, rec.Completed, rec.Accepted, rec.AnalysisError,
			rec.ClockStepSuspected, rec.ClockStepHosts)
		for _, k := range sortedKeys(rec.Outcomes) {
			fmt.Fprintf(h, "outcome %s=%s\n", k, rec.Outcomes[k])
		}
		for _, k := range sortedKeys(rec.Bounds) {
			fmt.Fprintf(h, "bounds %s=%+v\n", k, rec.Bounds[k])
		}
		if rec.Report != nil {
			var lines []string
			for _, c := range rec.Report.Injections {
				lines = append(lines, fmt.Sprintf("injection %s/%s correct=%v", c.Machine, c.Fault, c.Correct))
			}
			sort.Strings(lines)
			fmt.Fprintln(h, strings.Join(lines, "\n"), rec.Report.MissingFaults)
		}
		if rec.Global != nil {
			text, err := analysis.EncodeString(rec.Global)
			if err != nil {
				return "", err
			}
			h.Write([]byte(text))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
