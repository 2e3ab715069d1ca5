package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestClusterTraceMergeAndMetricsPull drives a multi-runtime loopback
// cluster with tracing and metrics enabled and checks the fleet
// observability contract: every experiment leaves one merged trace
// artifact containing the coordinator's phase spans plus a lane per
// member, the Chrome export renders all lanes, and the coordinator's
// registry ends up holding member-labeled series pulled at seal.
func TestClusterTraceMergeAndMetricsPull(t *testing.T) {
	const experiments = 2
	c := stepCampaign(t, experiments, 1)
	dir := t.TempDir()
	c.Obs = &obs.Sink{TraceDir: dir, Metrics: obs.NewRegistry()}

	sr, err := RunClustered(context.Background(), c, c.Studies[0], transport.KindNameInproc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != experiments {
		t.Fatalf("records = %d, want %d", len(sr.Records), experiments)
	}

	// Loopback peers are named after the hosts they own; h1's owner
	// coordinates, so h2 and h3 are the member lanes.
	for _, name := range []string{"exp000.trace.jsonl", "exp001.trace.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, "steps", name))
		if err != nil {
			t.Fatalf("merged trace artifact missing: %v", err)
		}
		tr, err := obs.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.Members(); len(got) != 2 || got[0] != "h2" || got[1] != "h3" {
			t.Errorf("%s: member lanes = %v, want [h2 h3]", name, got)
		}
		lanes := map[string]int{}
		for _, s := range tr.Spans() {
			lanes[s.Member]++
		}
		// The coordinator contributes the phase spans (reset, both sync
		// mini-phases, experiment, analyze); each member lane carries at
		// least its experiment span.
		if lanes[""] < 4 {
			t.Errorf("%s: coordinator lane has %d spans, want >= 4", name, lanes[""])
		}
		for _, m := range []string{"h2", "h3"} {
			if lanes[m] == 0 {
				t.Errorf("%s: no spans merged from member %s", name, m)
			}
		}
		var chrome bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatalf("%s: WriteChrome: %v", name, err)
		}
		for _, w := range []string{`"name": "coordinator"`, `"name": "h2"`, `"name": "h3"`} {
			if !strings.Contains(chrome.String(), w) {
				t.Errorf("%s: chrome export missing lane %s", name, w)
			}
		}
	}

	// The metrics pull at study seal imports every member's local
	// series, spliced with a member label, into the coordinator's
	// registry — the single fleet surface metrics.json snapshots.
	var prom strings.Builder
	if err := c.Obs.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, w := range []string{`member="h2"`, `member="h3"`} {
		if !strings.Contains(out, w) {
			t.Errorf("registry missing pulled member series %s in:\n%s", w, out)
		}
	}
	// The sync rounds against each member must have produced offset
	// estimates (the trace merge depends on them).
	for _, m := range []string{"h2", "h3"} {
		if !strings.Contains(out, `loki_member_sync_rounds_ok_total{member="`+m+`"}`) {
			t.Errorf("no sync-round accounting for member %s:\n%s", m, out)
		}
	}
	// No double member labels from the loopback shared registry.
	if strings.Contains(out, `member="h2",member=`) || strings.Contains(out, `member="h3",member=`) {
		t.Errorf("duplicate member label in:\n%s", out)
	}
}

// TestClusterEventMemberAttribution: progress events emitted by a
// clustered study carry the coordinator's peer name, so multi-process
// watchers can tell which process reported.
func TestClusterEventMemberAttribution(t *testing.T) {
	c := stepCampaign(t, 1, 1)
	var events []obs.Event
	c.Obs = &obs.Sink{}
	c.Obs.Watch(func(ev obs.Event) { events = append(events, ev) })
	if _, err := RunClustered(context.Background(), c, c.Studies[0], transport.KindNameInproc); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from clustered run")
	}
	for _, ev := range events {
		if ev.Member != "h1" {
			t.Errorf("event %s exp %d: member %q, want h1 (the coordinator)", ev.Kind, ev.Index, ev.Member)
		}
	}
}

// studyEngines selects both study engines by Study.Transport: the
// in-process worker pool, and the cluster coordinator over a UDP loopback
// cluster, whose events name the coordinator's peer.
var studyEngines = []struct{ name, transport, member string }{
	{"pool", "", ""},
	{"cluster-udp", transport.KindNameUDP, "h1"},
}

// TestResumedStudyProgress: a fully journaled study resumes with the same
// progress events on both engines — study-start already counting every
// journaled experiment, no experiment event for a journaled index — and
// every clustered event still names the coordinator.
func TestResumedStudyProgress(t *testing.T) {
	const experiments = 3
	want := []string{"study-start 3/3 accepted 3", "study-done 3/3 accepted 3"}
	for _, eng := range studyEngines {
		t.Run(eng.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(resume bool, sink *obs.Sink) {
				c := stepCampaign(t, experiments, 1)
				c.Studies[0].Transport = eng.transport
				c.Checkpoint = &Checkpoint{Dir: dir, Resume: resume}
				c.Obs = sink
				if _, err := Run(context.Background(), c); err != nil {
					t.Fatal(err)
				}
			}
			run(false, nil)
			var events []obs.Event
			sink := &obs.Sink{}
			sink.Watch(func(ev obs.Event) { events = append(events, ev) })
			run(true, sink)

			var got []string
			for _, ev := range events {
				got = append(got, fmt.Sprintf("%s %d/%d accepted %d", ev.Kind, ev.Completed, ev.Experiments, ev.Accepted))
				if ev.Member != eng.member {
					t.Errorf("event %s: member %q, want %q", ev.Kind, ev.Member, eng.member)
				}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("resumed progress events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestPhasePipelineParity: both engines time an experiment through one
// phase pipeline — the same phase spans, in the same order, in its trace,
// and the same observation counts in the per-phase histograms.
func TestPhasePipelineParity(t *testing.T) {
	phases := map[string]bool{"reset": true, "clock-sync-pre": true, "experiment": true, "clock-sync-post": true, "analyze": true}
	const (
		wantSpans = "reset clock-sync-pre experiment clock-sync-post analyze"
		wantHists = "reset=1 sync=2 run=1"
	)
	for _, eng := range studyEngines {
		t.Run(eng.name, func(t *testing.T) {
			c := stepCampaign(t, 1, 1)
			c.Studies[0].Transport = eng.transport
			dir := t.TempDir()
			c.Obs = &obs.Sink{TraceDir: dir, Metrics: obs.NewRegistry()}
			if _, err := Run(context.Background(), c); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(filepath.Join(dir, "steps", "exp000.trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := obs.DecodeTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var spans []string
			for _, s := range tr.Spans() {
				if s.Member == "" && phases[s.Name] {
					spans = append(spans, s.Name)
				}
			}
			if got := strings.Join(spans, " "); got != wantSpans {
				t.Errorf("phase spans = %q, want %q", got, wantSpans)
			}

			h := c.Obs.Metrics.LocalSnapshot().Histograms
			count := func(phase string) uint64 {
				return h[`loki_experiment_phase_seconds{phase="`+phase+`"}`].Count
			}
			if got := fmt.Sprintf("reset=%d sync=%d run=%d", count("reset"), count("sync"), count("run")); got != wantHists {
				t.Errorf("phase histogram counts = %s, want %s", got, wantHists)
			}
		})
	}
}
