// Benchmarks for the parallel campaign engine and the notification hot
// path. lokibench (lokibench/DESIGN.md) holds the end-to-end figures.
//
//	go test -bench='BenchmarkCampaign|BenchmarkNotify' -benchmem
package loki_test

import (
	"fmt"
	"testing"
	"time"

	loki "repro"
)

// throughputCampaign builds a small sleep-dominated campaign: per-experiment
// wall time is dominated by the election run and the sync-phase spacing, so
// worker-pool scaling is visible even on few cores.
func throughputCampaign(experiments, workers int, seed int64) *loki.Campaign {
	c := electionCampaignRunFor("tp", experiments, false, seed, 25*time.Millisecond)
	c.Workers = workers
	c.Sync = loki.SyncConfig{Messages: 4, Transit: 20 * time.Microsecond, Spacing: time.Millisecond}
	c.Studies[0].Timeout = 5 * time.Second
	return c
}

// BenchmarkCampaignThroughput measures full-pipeline experiments/sec at
// several worker counts. Each iteration runs one 8-experiment campaign.
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const experiments = 8
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				out := runSession(b, throughputCampaign(experiments, workers, int64(i))).Campaign
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

// BenchmarkNotifyHotPath measures the probe's notifyEvent path in
// isolation: state tracking, timeline record, and fault-parser evaluation,
// with no notify lists (no cross-node traffic) so the per-event cost is
// what is measured. The node carries fault specs over several machines;
// only the expressions mentioning the changed machine should be
// re-evaluated, and no per-event view copy should be made.
func BenchmarkNotifyHotPath(b *testing.B) {
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
		b.Fatal(err)
	}
	faults, err := loki.ParseFaultSpecs(`
f1 ((m1:X) & (m2:Y)) once
f2 ((m3:X) | (m4:Y)) always
f3 ~(m5:Z) & (m6:W) always
f4 ((solo:A) & (solo:B)) always
`)
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	h := n.Handle()
	// Wait for the app to initialize the state machine.
	for {
		if _, ok := n.CurrentState(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ev := "flip"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.NotifyEvent(ev); err != nil {
			b.Fatal(err)
		}
		if ev == "flip" {
			ev = "flop"
		} else {
			ev = "flip"
		}
	}
}
