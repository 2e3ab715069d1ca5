// Benchmarks for the pluggable transport subsystem: raw frame round
// trips per implementation, and full-pipeline campaign throughput on the
// in-process engine versus the clustered socket engines. See the
// "Transports" section of EXPERIMENTS.md.
//
//	go test -bench=BenchmarkTransport -benchmem
package loki_test

import (
	"sync/atomic"
	"testing"
	"time"

	loki "repro"
	"repro/internal/transport"
)

// benchPair builds a connected two-endpoint loopback cluster of the
// given kind, with host h1 on peer a and h2 on peer b.
func benchPair(b *testing.B, kind string) (a, bb transport.Transport) {
	b.Helper()
	eps, err := transport.NewLoopbackCluster(kind, map[string]string{"h1": "a", "h2": "b"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps["a"], eps["b"]
}

// transportRoundTrip measures one full echo through a transport pair:
// marshal, socket (or direct call), handler dispatch, and back.
func transportRoundTrip(b *testing.B, kind string) {
	a, bb := benchPair(b, kind)
	echoed := make(chan struct{}, 1)
	if err := bb.Start(func(m transport.Message) {
		if err := bb.SendHost("h1", transport.Message{Kind: transport.KindNote, State: "pong"}); err != nil {
			panic(err)
		}
	}); err != nil {
		b.Fatal(err)
	}
	if err := a.Start(func(m transport.Message) {
		select {
		case echoed <- struct{}{}:
		default:
		}
	}); err != nil {
		b.Fatal(err)
	}
	var lost atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendHost("h2", transport.Message{Kind: transport.KindNote, From: "black", To: "green", State: "ping"}); err != nil {
			b.Fatal(err)
		}
		select {
		case <-echoed:
		case <-time.After(time.Second):
			lost.Add(1) // a dropped datagram; count it, keep measuring
		}
	}
	b.StopTimer()
	if n := lost.Load(); n > 0 {
		b.ReportMetric(float64(n), "lost")
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	for _, kind := range []string{"inproc", "udp", "tcp"} {
		b.Run(kind, func(b *testing.B) { transportRoundTrip(b, kind) })
	}
}

// clusteredCampaign builds the bench election campaign for a transport
// kind ("" = the in-process engine with one worker, the like-for-like
// baseline: clustered studies are single-flight too).
func clusteredCampaign(experiments int, kind string, seed int64) *loki.Campaign {
	c := electionCampaignRunFor("tp", experiments, false, seed, 25*time.Millisecond)
	c.Workers = 1
	c.Sync = loki.SyncConfig{Messages: 4, Transit: 20 * time.Microsecond, Spacing: time.Millisecond}
	c.Studies[0].Timeout = 5 * time.Second
	c.Studies[0].Transport = kind
	return c
}

// BenchmarkTransportCampaign measures full-pipeline experiments/sec per
// transport: sync mini-phases (socket round trips for remote hosts),
// runtime phase (notifications and app traffic framed across endpoints),
// result streaming, and analysis.
func BenchmarkTransportCampaign(b *testing.B) {
	for _, kind := range []string{"", "udp", "tcp"} {
		name := kind
		if name == "" {
			name = "inproc"
		}
		b.Run(name, func(b *testing.B) {
			const experiments = 4
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				out := runSession(b, clusteredCampaign(experiments, kind, int64(i))).Campaign
				if n := len(out.Study("study1").Records); n != experiments {
					b.Fatalf("got %d records, want %d", n, experiments)
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*experiments)/elapsed, "experiments/sec")
			}
		})
	}
}
