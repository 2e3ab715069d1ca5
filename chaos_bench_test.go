// Benchmarks for the chaos subsystem's matrix engine. lokibench
// (lokibench/DESIGN.md) holds the end-to-end figures.
//
//	go test -bench='BenchmarkChaos' -benchmem
package loki_test

import (
	"fmt"
	"testing"
	"time"

	loki "repro"
	"repro/apps/election"
)

// chaosMatrix builds a partition-heavy election matrix: every machine
// carries a partition-on-LEAD action fault (its host is split off for
// 10 ms, then healed), expanded over two seeds.
func chaosMatrix(t testing.TB, experiments int) *loki.Matrix {
	peers := []string{"black", "green", "yellow"}
	hosts := map[string]string{"black": "h1", "green": "h2", "yellow": "h3"}
	doc := ""
	for _, nick := range peers {
		doc += fmt.Sprintf("%s %ssplit (%s:LEAD) once partition(%s) 10ms\n",
			nick, nick[:1], nick, hosts[nick])
	}
	faults, err := loki.ParseScenarioFaults(doc)
	if err != nil {
		t.Fatal(err)
	}
	return &loki.Matrix{
		Name:      "partition-heavy",
		Scenarios: []loki.Scenario{{Name: "netsplit", Faults: faults}},
		Seeds:     []int64{1, 2},
		Build: func(p loki.MatrixPoint) (*loki.Study, error) {
			var nodes []loki.NodeDef
			for i, nick := range peers {
				in := election.New(election.Config{
					Peers:  peers,
					RunFor: 25 * time.Millisecond,
					Seed:   p.Seed + int64(i),
				})
				nodes = append(nodes, loki.NodeDef{
					Nickname: nick,
					Spec:     election.SpecFor(nick, peers),
					App:      in,
				})
			}
			return &loki.Study{
				Nodes:       nodes,
				Experiments: experiments,
				Timeout:     5 * time.Second,
				Placement: []loki.NodeEntry{
					{Nickname: "black", Host: "h1"},
					{Nickname: "green", Host: "h2"},
					{Nickname: "yellow", Host: "h3"},
				},
			}, nil
		},
	}
}

func chaosCampaign(workers int) *loki.Campaign {
	return &loki.Campaign{
		Name: "chaos-bench",
		Hosts: []loki.HostDef{
			{Name: "h1", Clock: loki.ClockConfig{}},
			{Name: "h2", Clock: loki.ClockConfig{Offset: 4e6, DriftPPM: 60}},
			{Name: "h3", Clock: loki.ClockConfig{Offset: -2e6, DriftPPM: -35}},
		},
		Workers: workers,
		Sync:    loki.SyncConfig{Messages: 4, Transit: 20 * time.Microsecond, Spacing: time.Millisecond},
	}
}

// BenchmarkChaosMatrix measures matrix-engine throughput (full pipeline,
// partition actions firing) at several worker counts.
func BenchmarkChaosMatrix(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const perPoint = 4 // x2 seeds = 8 experiments per matrix
			b.ReportAllocs()
			start := time.Now()
			total := 0
			for i := 0; i < b.N; i++ {
				out := runSession(b, chaosCampaign(workers), loki.WithMatrix(chaosMatrix(b, perPoint))).Matrix
				_, n := out.AcceptedTotal()
				total += n
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(total)/elapsed, "experiments/sec")
			}
		})
	}
}
