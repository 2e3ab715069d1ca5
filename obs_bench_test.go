// Benchmarks for the observability layer's overhead on the campaign hot
// path. lokibench (lokibench/DESIGN.md) holds the end-to-end figures.
//
//	go test -bench='BenchmarkObserverOverhead' -benchmem
package loki_test

import (
	"context"
	"testing"
	"time"

	loki "repro"
	"repro/apps/election"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
)

// obsModes enumerates the benchmarked observer configurations.
var obsModes = []string{"off", "metrics", "full"}

// obsOptions builds the session options for one observer mode; "full"
// adds per-experiment tracing into dir on top of metrics.
func obsOptions(mode, dir string) []loki.Option {
	switch mode {
	case "metrics":
		return []loki.Option{loki.WithMetrics()}
	case "full":
		return []loki.Option{loki.WithMetrics(), loki.WithTracing(dir)}
	}
	return nil
}

// runObsBench runs the chaos matrix under virtual time (no sleeps, so
// observer cost is a visible fraction of the work) and returns the
// experiment count.
func runObsBench(tb testing.TB, perPoint int, opts ...loki.Option) int {
	opts = append([]loki.Option{
		loki.WithMatrix(chaosMatrix(tb, perPoint)),
		loki.WithVirtualTime(),
	}, opts...)
	_, n := runSession(tb, chaosCampaign(1), opts...).Matrix.AcceptedTotal()
	return n
}

// BenchmarkObserverOverhead measures campaign throughput with observers
// off, metrics only, and metrics plus full tracing — the CI gate behind
// the "disabled observers are free, metrics are cheap" contract.
func BenchmarkObserverOverhead(b *testing.B) {
	const perPoint = 4 // x2 seeds = 8 experiments per run
	for _, mode := range obsModes {
		b.Run("observers="+mode, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			total := 0
			for i := 0; i < b.N; i++ {
				total += runObsBench(b, perPoint, obsOptions(mode, b.TempDir())...)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(total)/elapsed, "experiments/sec")
			}
		})
	}
}

// clusteredBenchCampaign builds a plain three-peer election study for the
// UDP loopback cluster — no faults, so the measured cost is protocol and
// observability machinery, not chaos work.
func clusteredBenchCampaign(experiments int) *campaign.Campaign {
	peers := []string{"black", "green", "yellow"}
	hosts := []string{"h1", "h2", "h3"}
	var nodes []core.NodeDef
	var placement []spec.NodeEntry
	for i, nick := range peers {
		in := election.New(election.Config{Peers: peers, RunFor: 20 * time.Millisecond, Seed: 7 + int64(i)})
		nodes = append(nodes, core.NodeDef{Nickname: nick, Spec: election.SpecFor(nick, peers), App: in})
		placement = append(placement, spec.NodeEntry{Nickname: nick, Host: hosts[i]})
	}
	return &campaign.Campaign{
		Name:  "clustered-obs-bench",
		Hosts: []campaign.HostDef{{Name: "h1"}, {Name: "h2"}, {Name: "h3"}},
		Studies: []*campaign.Study{{
			Name: "election", Nodes: nodes, Placement: placement,
			Experiments: experiments, Timeout: 10 * time.Second,
		}},
		Sync: campaign.SyncConfig{Messages: 4, Transit: 25 * time.Microsecond},
	}
}

// runClusteredObsBench runs the study over the 3-endpoint UDP loopback
// cluster, with or without per-experiment tracing (member lanes pulled
// and merged), and returns the experiment count.
func runClusteredObsBench(tb testing.TB, experiments int, traced bool, dir string) int {
	tb.Helper()
	c := clusteredBenchCampaign(experiments)
	if traced {
		c.Obs = &obs.Sink{TraceDir: dir, Metrics: obs.NewRegistry()}
	}
	sr, err := campaign.RunClustered(context.Background(), c, c.Studies[0], "udp")
	if err != nil {
		tb.Fatal(err)
	}
	if len(sr.Records) != experiments {
		tb.Fatalf("records = %d, want %d", len(sr.Records), experiments)
	}
	return len(sr.Records)
}

// BenchmarkClusteredTracingOverhead measures UDP loopback cluster
// throughput with tracing off (the trace-stream protocol idle: one flag
// on the reset frame, no pulls) and on (member lanes recorded, pulled,
// offset-aligned, merged, written).
func BenchmarkClusteredTracingOverhead(b *testing.B) {
	const experiments = 2
	for _, traced := range []bool{false, true} {
		name := "tracing=off"
		if traced {
			name = "tracing=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			total := 0
			for i := 0; i < b.N; i++ {
				total += runClusteredObsBench(b, experiments, traced, b.TempDir())
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(total)/elapsed, "experiments/sec")
			}
		})
	}
}
