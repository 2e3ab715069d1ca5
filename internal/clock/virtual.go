package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"repro/internal/vclock"
)

// virtualEpoch anchors Virtual.Now's time.Time values. It is a fixed
// constant — not process start — so virtual timestamps are identical
// across runs, which is what makes journal records byte-reproducible.
var virtualEpoch = time.Unix(0, 0).UTC()

// Virtual is a virtual-time scheduler implementing Clock. It serializes
// every tracked task (at most one runs at a time) and advances simulated
// time to the earliest pending timer only when all tasks are blocked — so
// a campaign dominated by Sleep and timeout waits runs as fast as the CPU
// can execute its non-waiting work, with timing geometry preserved
// exactly.
//
// Tracking is cooperative: a goroutine is known to the scheduler only if
// it was spawned through Go or AfterFunc, or is the driver between Drive
// and Release. Tracked goroutines must block exclusively through Sleep or
// Waiter.Wait; blocking on a bare channel or mutex held across a wait
// would stall the clock (a Wait from an untracked goroutine panics, to
// catch the mistake early).
//
// Timers fire only while a driver is inside a Drive/Release window. This
// scopes time advancement to the experiment being driven: housekeeping
// tasks parked on periodic timers (a watchdog, a supervisor poll) do not
// spin simulated time forward between experiments.
type Virtual struct {
	mu      sync.Mutex
	now     vclock.Ticks
	seq     uint64
	timers  timerHeap
	ready   []readyItem // woken waiters and Go tasks, FIFO
	busy    int         // tracked tasks currently running (0 or 1 after startup)
	parked  int         // tracked tasks blocked in Sleep/Wait
	driving int         // Drive/Release nesting; timers fire only when > 0
	idle    chan struct{}

	// Activity counters for observability (read via Stats). Plain fields
	// under mu, kept here rather than in internal/obs so the clock stays
	// dependency-free; campaigns export deltas into their metrics registry.
	firedTimers uint64 // timer deadlines reached and dispatched
	tasks       uint64 // tracked tasks started via Go/AfterFunc bodies

	// Free lists, under mu, so the hot path stops allocating per wait:
	// Sleep's private waiters, and sleeper timer entries once dispatch has
	// popped them. AfterFunc entries are never recycled — their
	// virtualTimer still points at them.
	spareWaiters []*vWaiter
	spareEntries []*timerEntry
}

// VirtualStats is a snapshot of a virtual scheduler's activity.
type VirtualStats struct {
	// FiredTimers counts timer deadlines dispatched (AfterFunc bodies and
	// Sleep/Wait deadline wakeups).
	FiredTimers uint64
	// Tasks counts tracked task bodies started (Go spawns and fired
	// AfterFunc bodies).
	Tasks uint64
}

// Stats returns cumulative scheduler activity counters.
func (v *Virtual) Stats() VirtualStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return VirtualStats{FiredTimers: v.firedTimers, Tasks: v.tasks}
}

// NewVirtual returns a virtual clock positioned at time zero.
func NewVirtual() *Virtual { return &Virtual{} }

type readyItem struct {
	w  *vWaiter
	fn func()
}

type timerEntry struct {
	at      vclock.Ticks
	seq     uint64
	fn      func()   // AfterFunc body; nil for sleeper entries
	w       *vWaiter // sleeping waiter; nil for AfterFunc entries
	gen     uint64   // the waiter park generation this entry belongs to
	stopped bool
	fired   bool
	index   int
}

// stale reports whether a heap entry can no longer fire: a stopped
// AfterFunc, or a sleeper entry whose waiter was woken or re-parked since
// it was pushed. Every park bumps the waiter's gen, so stale is permanent.
func (e *timerEntry) stale() bool {
	return e.stopped || (e.w != nil && (!e.w.parked || e.w.queued || e.gen != e.w.gen))
}

// timerHeap orders entries by (due time, creation sequence) so equal
// deadlines fire in creation order — deterministic across runs.
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x interface{}) {
	e := x.(*timerEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now implements Clock. Simulated time is frozen while a task runs, so
// every timestamp a task takes is deterministic.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return virtualEpoch.Add(time.Duration(v.now))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// NowTicks returns the current simulated time (for tests and the Source
// adapter).
func (v *Virtual) NowTicks() vclock.Ticks {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Source returns the scheduler's simulated time as a vclock.Source, so
// the testbed's hidden-error host clocks derive from virtual time.
func (v *Virtual) Source() vclock.Source { return virtualSource{v} }

type virtualSource struct{ v *Virtual }

func (s virtualSource) Now() vclock.Ticks { return s.v.NowTicks() }

// Sleep implements Clock: the calling task blocks and resumes exactly d
// later in simulated time, regardless of what other timers fire meanwhile.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	var w *vWaiter
	if n := len(v.spareWaiters); n > 0 {
		w = v.spareWaiters[n-1]
		v.spareWaiters = v.spareWaiters[:n-1]
	} else {
		w = v.newWaiter()
	}
	w.wait(d)
	// The waiter is private and resumed only by its own deadline, so it
	// comes back clean: no pending resume, no wake, no entry left in the heap.
	v.spareWaiters = append(v.spareWaiters, w)
	v.mu.Unlock()
}

// AfterFunc implements Clock. The body runs as a tracked task when the
// deadline is reached (and a driver is active).
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	e := &timerEntry{at: v.now + vclock.Ticks(d), seq: v.seq, fn: fn}
	v.seq++
	heap.Push(&v.timers, e)
	v.mu.Unlock()
	return &virtualTimer{v: v, e: e}
}

type virtualTimer struct {
	v *Virtual
	e *timerEntry
}

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	if t.e.stopped || t.e.fired {
		return false
	}
	t.e.stopped = true
	return true
}

// Go implements Clock: fn is queued as an immediately runnable tracked
// task. Unlike a timer it is not gated on Drive — a task spawned ready
// runs at the current simulated time as soon as the scheduler is free.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.ready = append(v.ready, readyItem{fn: fn})
	if v.busy == 0 {
		v.dispatch()
	}
	v.mu.Unlock()
}

// NewWaiter implements Clock.
func (v *Virtual) NewWaiter() Waiter { return v.newWaiter() }

func (v *Virtual) newWaiter() *vWaiter {
	return &vWaiter{v: v, resume: make(chan struct{}, 1)}
}

// Drive marks the calling goroutine a tracked task and enables timer
// firing until the matching Release. A campaign worker wraps each
// experiment's runtime phase in Drive/Release: within the window the
// worker must block only through this clock. Drive first waits for the
// scheduler to go quiescent, so leftover tasks from a previous window
// finish or park before the new experiment starts — keeping execution
// strictly serialized, and therefore deterministic.
func (v *Virtual) Drive() {
	v.mu.Lock()
	for v.busy > 0 || len(v.ready) > 0 {
		if v.idle == nil {
			v.idle = make(chan struct{})
		}
		ch := v.idle
		v.mu.Unlock()
		<-ch
		v.mu.Lock()
	}
	v.driving++
	v.busy++
	v.mu.Unlock()
}

// Release ends a Drive window. Pending ready tasks are dispatched; timers
// stop firing once no driver remains.
func (v *Virtual) Release() {
	v.mu.Lock()
	v.driving--
	v.busy--
	v.dispatch()
	v.mu.Unlock()
}

// runTask executes one tracked task body on its own goroutine.
func (v *Virtual) runTask(fn func()) {
	defer func() {
		v.mu.Lock()
		v.busy--
		v.dispatch()
		v.mu.Unlock()
	}()
	fn()
}

// dispatch, with v.mu held and no task running, starts the next runnable
// task: first the FIFO of woken waiters and Go bodies, then — inside a
// Drive window — the earliest pending timer, advancing simulated time to
// its deadline. If a driver exists but nothing can ever run again, the
// virtual testbed is deadlocked (a goroutine blocked outside the clock's
// view) and dispatch panics rather than hang silently.
func (v *Virtual) dispatch() {
	if v.busy > 0 {
		return
	}
	if len(v.ready) > 0 {
		// Shift rather than reslice, so the FIFO reuses one backing array.
		it := v.ready[0]
		n := copy(v.ready, v.ready[1:])
		v.ready[n] = readyItem{}
		v.ready = v.ready[:n]
		v.busy++
		if it.fn != nil {
			v.tasks++
			go v.runTask(it.fn)
			return
		}
		w := it.w
		w.queued = false
		w.parked = false
		v.parked--
		w.byWake = true
		w.resume <- struct{}{}
		return
	}
	if v.driving > 0 {
		v.dropStale()
		if v.timers.Len() > 0 {
			e := heap.Pop(&v.timers).(*timerEntry)
			if e.at > v.now {
				v.now = e.at
			}
			v.busy++
			v.firedTimers++
			if e.fn != nil {
				e.fired = true
				v.tasks++
				go v.runTask(e.fn)
				return
			}
			w := e.w
			v.freeEntry(e)
			w.parked = false
			v.parked--
			w.byWake = false
			w.resume <- struct{}{}
			return
		}
		if v.parked > 0 {
			panic(fmt.Sprintf(
				"clock: virtual deadlock: %d task(s) parked, no runnable task or pending timer (driving=%d, now=%v)",
				v.parked, v.driving, time.Duration(v.now)))
		}
	}
	if v.idle != nil {
		close(v.idle)
		v.idle = nil
	}
}

// freeEntry puts a popped sleeper entry on the free list. Nothing else
// points at it: a waiter does not remember its entries.
func (v *Virtual) freeEntry(e *timerEntry) {
	if e.w == nil {
		return // AfterFunc entry, still referenced by its virtualTimer
	}
	e.w = nil
	v.spareEntries = append(v.spareEntries, e)
}

// dropStale discards canceled and superseded entries from the heap top,
// so the top, if any, is the next timer to fire.
func (v *Virtual) dropStale() {
	for v.timers.Len() > 0 && v.timers[0].stale() {
		v.freeEntry(heap.Pop(&v.timers).(*timerEntry))
	}
}

// vWaiter is the virtual Waiter: parking decrements busy and hands
// control to dispatch; Wake queues the waiter on the ready FIFO.
type vWaiter struct {
	v      *Virtual
	resume chan struct{}
	gen    uint64
	parked bool
	queued bool // parked and already on the ready FIFO
	woken  bool // sticky wake while not parked
	byWake bool // why the pending resume happened
}

func (w *vWaiter) Wake() {
	v := w.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if w.woken || w.queued {
		return // coalesce
	}
	if w.parked {
		w.queued = true
		v.ready = append(v.ready, readyItem{w: w})
		if v.busy == 0 {
			v.dispatch()
		}
		return
	}
	w.woken = true
}

func (w *vWaiter) Wait(d time.Duration) bool {
	w.v.mu.Lock()
	byWake := w.wait(d)
	w.v.mu.Unlock()
	return byWake
}

// wait is Wait with v.mu held on entry and on return.
//
// A bounded wait takes a no-park fast path when nothing else could run
// before its deadline: a driver is active, the caller is the only busy
// task, the ready FIFO is empty, and every live timer is due strictly
// later. Parking would then hand control straight back to the caller
// through dispatch, so the fast path does what dispatch would — advance
// now, consume a sequence number and count the fired timer — without the
// heap entry or the channel round trip.
func (w *vWaiter) wait(d time.Duration) bool {
	v := w.v
	if w.woken {
		w.woken = false
		return true
	}
	if d == 0 {
		return false
	}
	if v.busy == 0 {
		v.mu.Unlock()
		panic("clock: Wait from a goroutine unknown to the virtual scheduler (spawn it with Clock.Go)")
	}
	w.gen++
	if d > 0 {
		at := v.now + vclock.Ticks(d)
		if v.driving > 0 && v.busy == 1 && len(v.ready) == 0 {
			// A tie does not qualify: the older entry fires first.
			v.dropStale()
			if v.timers.Len() == 0 || at < v.timers[0].at {
				v.seq++
				v.now = at
				v.firedTimers++
				return false
			}
		}
		var e *timerEntry
		if n := len(v.spareEntries); n > 0 {
			e = v.spareEntries[n-1]
			v.spareEntries = v.spareEntries[:n-1]
		} else {
			e = new(timerEntry)
		}
		*e = timerEntry{at: at, seq: v.seq, w: w, gen: w.gen}
		v.seq++
		heap.Push(&v.timers, e)
	}
	w.parked = true
	v.parked++
	v.busy--
	v.dispatch()
	v.mu.Unlock()
	<-w.resume
	v.mu.Lock()
	return w.byWake
}

var _ Clock = (*Virtual)(nil)
