package clock

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// The driver pattern every test uses mirrors the campaign engine: Drive
// marks the test goroutine a tracked task and enables timer firing;
// Release ends the window. Tasks spawned with Go and timer bodies run
// strictly serialized, so plain (unlocked) test state is also a race-
// detector check of the scheduler's happens-before chain.

func TestVirtualNowFixedEpoch(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); !got.Equal(time.Unix(0, 0).UTC()) {
		t.Fatalf("fresh virtual clock at %v, want the fixed epoch", got)
	}
}

func TestVirtualSleepAdvancesExactly(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	start := v.Now()
	v.Sleep(5 * time.Millisecond)
	if got := v.Now().Sub(start); got != 5*time.Millisecond {
		t.Fatalf("Sleep(5ms) advanced %v", got)
	}
	// Sleep of zero or negative duration returns without parking.
	v.Sleep(0)
	v.Sleep(-time.Second)
	if got := v.Now().Sub(start); got != 5*time.Millisecond {
		t.Fatalf("non-positive Sleep advanced time to %v", got)
	}
}

func TestVirtualTimerOrdering(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	var order []int
	var stamps []vclock.Ticks
	note := func(id int) func() {
		return func() {
			order = append(order, id)
			stamps = append(stamps, v.NowTicks())
		}
	}
	// Registered out of deadline order; 4 shares 2's deadline and must
	// fire after it (creation order breaks the tie).
	v.AfterFunc(3*time.Millisecond, note(3))
	v.AfterFunc(1*time.Millisecond, note(1))
	v.AfterFunc(2*time.Millisecond, note(2))
	v.AfterFunc(2*time.Millisecond, note(4))
	v.Sleep(5 * time.Millisecond)
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	wantAt := []vclock.Ticks{1e6, 2e6, 2e6, 3e6}
	for i, at := range wantAt {
		if stamps[i] != at {
			t.Fatalf("timer %d fired at %v, want %v", order[i], stamps[i], at)
		}
	}
}

func TestVirtualAfterFuncStop(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	v.Sleep(2 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm = v.AfterFunc(time.Millisecond, func() { fired = true })
	v.Sleep(2 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestVirtualConcurrentSleepers(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	type wake struct {
		id int
		at vclock.Ticks
	}
	var wakes []wake
	for i := 1; i <= 4; i++ {
		id := i
		v.Go(func() {
			v.Sleep(time.Duration(id) * time.Millisecond)
			wakes = append(wakes, wake{id, v.NowTicks()})
		})
	}
	v.Sleep(10 * time.Millisecond)
	if len(wakes) != 4 {
		t.Fatalf("%d sleepers woke, want 4", len(wakes))
	}
	for i, w := range wakes {
		if w.id != i+1 {
			t.Fatalf("wake order %v, want deadline order", wakes)
		}
		if w.at != vclock.Ticks(w.id)*1e6 {
			t.Fatalf("sleeper %d woke at %v, want exactly %dms", w.id, w.at, w.id)
		}
	}
}

func TestVirtualWaiterStickyWake(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	w := v.NewWaiter()
	w.Wake()
	w.Wake() // coalesces with the first
	start := v.NowTicks()
	if !w.Wait(time.Hour) {
		t.Fatal("Wait after Wake reported timeout")
	}
	if v.NowTicks() != start {
		t.Fatal("sticky wake consumed simulated time")
	}
	// The second Wake coalesced: nothing is pending now.
	if w.Wait(0) {
		t.Fatal("coalesced Wake delivered twice")
	}
}

func TestVirtualWaiterTimeout(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	w := v.NewWaiter()
	start := v.NowTicks()
	if w.Wait(5 * time.Millisecond) {
		t.Fatal("Wait with no Wake reported woken")
	}
	if got := v.NowTicks() - start; got != 5e6 {
		t.Fatalf("timeout advanced %v ticks, want 5ms", got)
	}
}

func TestVirtualWakeWhileParked(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	w := v.NewWaiter()
	var woken, timedOut bool
	v.Go(func() {
		woken = w.Wait(time.Hour)
		// The superseded hour timer must not resurrect the waiter: a
		// second bounded wait must time out at its own deadline.
		timedOut = !w.Wait(time.Millisecond)
	})
	v.Sleep(time.Millisecond) // let the task park
	w.Wake()
	v.Sleep(2 * time.Millisecond)
	v.Release()
	if !woken {
		t.Fatal("parked waiter not woken")
	}
	if !timedOut {
		t.Fatal("re-parked waiter did not time out on its own deadline")
	}
	if got := v.NowTicks(); got != 3e6 {
		t.Fatalf("clock at %v, want 3ms (the hour timer must be discarded)", got)
	}
}

func TestVirtualWakeFromUntrackedGoroutine(t *testing.T) {
	// A stop() called after the Drive window — e.g. the campaign tearing
	// down a daemon between experiments — wakes the parked task and lets
	// it run to completion with no driver present.
	v := NewVirtual()
	w := v.NewWaiter()
	done := false
	v.Drive()
	v.Go(func() {
		w.Wait(-1)
		done = true
	})
	v.Sleep(time.Millisecond) // park the task
	v.Release()
	w.Wake()  // untracked caller: this test goroutine
	v.Drive() // waits for quiescence, i.e. the task finishing
	defer v.Release()
	if !done {
		t.Fatal("task parked forever after untracked Wake")
	}
}

func TestVirtualQuiescenceGatesTimers(t *testing.T) {
	v := NewVirtual()
	var reached, finished bool
	v.Go(func() {
		reached = true
		v.Sleep(time.Millisecond)
		finished = true
	})
	v.Drive() // waits until the task has parked
	if !reached {
		t.Fatal("Go task did not run before Drive returned")
	}
	if finished {
		t.Fatal("task's timer fired with no driver")
	}
	v.Sleep(2 * time.Millisecond)
	v.Release()
	if !finished {
		t.Fatal("task's timer did not fire inside the Drive window")
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer func() {
		if recover() == nil {
			t.Fatal("unbounded Wait with no possible wake did not panic")
		}
	}()
	v.NewWaiter().Wait(-1)
}

func TestVirtualUntrackedWaitPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Wait from an untracked goroutine did not panic")
		}
	}()
	v.NewWaiter().Wait(time.Millisecond)
}

func TestSpinWaitVirtualIsExact(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	start := v.NowTicks()
	SpinWait(v, 20*time.Microsecond)
	if got := v.NowTicks() - start; got != 20_000 {
		t.Fatalf("SpinWait advanced %v ticks, want exactly 20µs", got)
	}
}

func TestSpinWaitRealSubMillisecond(t *testing.T) {
	start := time.Now()
	SpinWait(Real{}, 50*time.Microsecond)
	if got := time.Since(start); got < 50*time.Microsecond {
		t.Fatalf("SpinWait returned after %v, want >= 50µs", got)
	}
}

func TestVirtualReusedWaiterIgnoresStaleEntry(t *testing.T) {
	// A waiter reused across waits (as core's per-node spares are) keeps
	// its gen counter: the timer entry left behind by a woken wait must
	// neither wake the next use early nor, once popped and recycled for
	// another sleeper, fire for the waiter it used to belong to.
	v := NewVirtual()
	v.Drive()
	w := v.NewWaiter()
	var first, second bool
	var secondAt vclock.Ticks
	v.Go(func() {
		first = w.Wait(2 * time.Millisecond) // woken at 1ms; 2ms entry goes stale
		second = w.Wait(5 * time.Millisecond)
		secondAt = v.NowTicks()
	})
	v.Sleep(time.Millisecond)
	w.Wake()
	v.Sleep(10 * time.Millisecond) // parks: reuses the discarded stale entry
	v.Release()
	if !first {
		t.Fatal("first wait not woken")
	}
	if second {
		t.Fatal("stale entry woke the reused waiter")
	}
	if secondAt != 6e6 {
		t.Fatalf("reused waiter resumed at %v, want its own 6ms deadline", secondAt)
	}
	if got := v.NowTicks(); got != 11e6 {
		t.Fatalf("clock at %v, want 11ms", got)
	}
	if st := v.Stats(); st.FiredTimers != 3 {
		t.Fatalf("FiredTimers = %d, want 3 (the stale entry must not count)", st.FiredTimers)
	}
}

func TestVirtualTiedDeadlineParks(t *testing.T) {
	// A sleeper whose deadline ties a pending timer must not take the
	// no-park fast path: the older entry fires first.
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	var order []string
	v.AfterFunc(time.Millisecond, func() { order = append(order, "timer") })
	v.Sleep(time.Millisecond)
	order = append(order, "driver")
	// Same tie between two sleepers: the task queued by Go sleeps after
	// the driver has parked, so its entry is younger and resumes second.
	v.Go(func() {
		v.Sleep(time.Millisecond)
		order = append(order, "task")
	})
	v.Sleep(time.Millisecond)
	order = append(order, "driver")
	v.Sleep(time.Millisecond) // let the task finish
	want := []string{"timer", "driver", "driver", "task"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if got := v.NowTicks(); got != 3e6 {
		t.Fatalf("clock at %v, want 3ms", got)
	}
}

func TestVirtualFastPathNeedsDriver(t *testing.T) {
	// A lone task sleeping outside a Drive window is the only busy task
	// with nothing ready and no other timer, yet it must park: without a
	// driver, time does not advance.
	v := NewVirtual()
	done := false
	v.Go(func() {
		v.Sleep(time.Millisecond)
		done = true
	})
	v.Drive() // returns once the task has parked
	if v.NowTicks() != 0 || v.Stats().FiredTimers != 0 || done {
		t.Fatalf("sleep advanced time outside a Drive window (now=%v)", v.NowTicks())
	}
	v.Sleep(2 * time.Millisecond)
	v.Release()
	if !done {
		t.Fatal("task did not resume inside the Drive window")
	}
}

func TestVirtualFastPathSkipsHeap(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	for i := 0; i < 3; i++ {
		v.Sleep(time.Millisecond)
	}
	if v.timers.Len() != 0 || len(v.spareEntries) != 0 {
		t.Fatalf("a lone driver's sleeps used timer entries (heap %d, spare %d)",
			v.timers.Len(), len(v.spareEntries))
	}
	if st := v.Stats(); st.FiredTimers != 3 || v.NowTicks() != 3e6 {
		t.Fatalf("FiredTimers=%d now=%v, want 3 and 3ms", st.FiredTimers, v.NowTicks())
	}
}

// mixedScript drives a fixed schedule of sleeps, waits, timers and tasks.
// before runs ahead of every sleep or wait.
func mixedScript(v *Virtual, before func()) (trace []vclock.Ticks) {
	note := func() { trace = append(trace, v.NowTicks()) }
	sleep := func(d time.Duration) {
		before()
		v.Sleep(d)
		note()
	}
	sleep(time.Millisecond)
	v.AfterFunc(3*time.Millisecond, note)
	sleep(time.Millisecond)
	w := v.NewWaiter()
	v.Go(func() {
		sleep(500 * time.Microsecond)
		before()
		w.Wait(4 * time.Millisecond)
		note()
		sleep(time.Millisecond)
	})
	sleep(2 * time.Millisecond)
	w.Wake()
	sleep(time.Millisecond)
	stop := v.AfterFunc(time.Millisecond, note)
	stop.Stop()
	for i := 0; i < 5; i++ {
		sleep(200 * time.Microsecond)
	}
	return trace
}

func TestVirtualFastPathMatchesParkedPath(t *testing.T) {
	// The same script runs twice: once as is, where the driver's lone
	// sleeps take the fast path (see TestVirtualFastPathSkipsHeap), and once with a helper task woken before every sleep, so
	// the ready FIFO is never empty and every sleep parks. Stats, the
	// final time and every observed timestamp must agree.
	fast := NewVirtual()
	fast.Drive()
	fastTrace := mixedScript(fast, func() {})
	fast.Release()

	slow := NewVirtual()
	slow.Drive()
	helper := slow.NewWaiter()
	quit := false
	slow.Go(func() {
		for !quit {
			helper.Wait(-1)
		}
	})
	slowTrace := mixedScript(slow, helper.Wake)
	ss := slow.Stats()
	ss.Tasks-- // the helper
	quit = true
	helper.Wake()
	slow.Release()

	if fs := fast.Stats(); fs != ss {
		t.Fatalf("Stats: fast path %+v, parked path %+v", fs, ss)
	}
	if fast.NowTicks() != slow.NowTicks() {
		t.Fatalf("final time: fast path %v, parked path %v", fast.NowTicks(), slow.NowTicks())
	}
	if len(fastTrace) != len(slowTrace) {
		t.Fatalf("trace: fast path %v, parked path %v", fastTrace, slowTrace)
	}
	for i := range fastTrace {
		if fastTrace[i] != slowTrace[i] {
			t.Fatalf("trace: fast path %v, parked path %v", fastTrace, slowTrace)
		}
	}
}

func TestVirtualSleepZeroAlloc(t *testing.T) {
	v := NewVirtual()
	v.Drive()
	defer v.Release()
	if n := testing.AllocsPerRun(100, func() { v.Sleep(time.Microsecond) }); n != 0 {
		t.Fatalf("lone Sleep: %v allocs/op, want 0", n)
	}
	// With a second task sleeping on an interleaved period, sleeps park
	// and go through dispatch: waiters and entries come from free lists.
	quit := false
	v.Go(func() {
		for !quit {
			v.Sleep(3 * time.Microsecond)
		}
	})
	if n := testing.AllocsPerRun(100, func() { v.Sleep(2 * time.Microsecond) }); n != 0 {
		t.Fatalf("parked Sleep: %v allocs/op, want 0", n)
	}
	quit = true
	v.Sleep(10 * time.Microsecond)
}
