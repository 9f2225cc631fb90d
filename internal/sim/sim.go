// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives the Xen-like hypervisor model (internal/xen) and the
// modeled-latency cloud pipeline (internal/cloudsim). Time is virtual: an
// event loop pops timestamped events from a priority queue and advances the
// clock to each event's due time, so simulated minutes execute in real
// microseconds and every run is reproducible from its RNG seed.
//
// Events come in two forms on one queue. At and After schedule a one-shot
// callback. NewEvent builds an event once that its owner re-arms with Reset
// as often as it likes; the hypervisor's timers use this form, so a
// steady-state simulation allocates nothing.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time measured as a duration since the start of
// the simulation. It deliberately reuses time.Duration so call sites can use
// the familiar literals (30*time.Millisecond etc.).
type Time = time.Duration

// Event is a scheduled callback. Fire runs when the simulation clock reaches
// the event's due time.
type Event struct {
	k    *Kernel
	due  Time
	seq  uint64 // tie-break: FIFO among events with equal due time
	fire func()

	index     int // heap index; -1 when not queued
	cancelled bool
}

// Cancel removes a pending event from the queue so it never fires.
// Cancelling an event that has already fired, was cancelled or was never
// armed is a no-op.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		e.k.remove(e.index)
	}
}

// Cancelled reports whether Cancel has been called on the event since it
// was last armed.
func (e *Event) Cancelled() bool { return e.cancelled }

// Due returns the virtual time at which the event is scheduled to fire.
func (e *Event) Due() Time { return e.due }

// Reset (re-)arms the event to fire at absolute virtual time due. A pending
// event moves; either way it takes a fresh sequence number, so it fires
// after every event already queued for the same instant, exactly as a new
// At call would. Reset may be called from inside the event's own callback.
// Scheduling in the past panics.
func (e *Event) Reset(due Time) {
	k := e.k
	if due < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", due, k.now))
	}
	if e.index >= 0 {
		k.remove(e.index)
	}
	e.due = due
	e.seq = k.seq
	k.seq++
	e.cancelled = false
	k.push(e)
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now    Time
	queue  []*Event // binary min-heap ordered by (due, seq)
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool
}

// NewKernel returns a kernel whose random source is seeded deterministically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All stochastic
// model decisions must draw from this source so runs replay identically.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired returns the number of events executed so far (useful in tests and
// as a progress/liveness measure).
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events queued to fire. Cancelled events
// leave the queue at once and are not counted.
func (k *Kernel) Pending() int { return len(k.queue) }

// NewEvent returns an unarmed event that runs fire each time it comes due.
// Arm it with Reset; it can be re-armed any number of times.
func (k *Kernel) NewEvent(fire func()) *Event {
	return &Event{k: k, fire: fire, index: -1}
}

// At schedules fire to run at absolute virtual time due. Scheduling in the
// past (before Now) panics: it indicates a model bug, not a runtime
// condition a caller could handle.
func (k *Kernel) At(due Time, fire func()) *Event {
	e := k.NewEvent(fire)
	e.Reset(due)
	return e
}

// After schedules fire to run delay after the current time.
func (k *Kernel) After(delay Time, fire func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fire)
}

// Halt stops the currently executing Run/RunUntil after the in-flight event
// completes. Pending events remain queued.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := k.queue[0]
	k.remove(0)
	k.now = e.due
	k.fired++
	e.fire()
	return true
}

// RunUntil executes events in timestamp order until the queue is exhausted
// or the next event is due strictly after deadline. The clock is left at
// min(deadline, last event time ≥ previous now): after RunUntil returns,
// Now() == deadline when the simulation reached it.
func (k *Kernel) RunUntil(deadline Time) {
	k.halted = false
	for !k.halted && len(k.queue) > 0 && k.queue[0].due <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run executes events until the queue is empty or Halt is called.
func (k *Kernel) Run() {
	k.halted = false
	for !k.halted && k.Step() {
	}
}

// less orders queued events by (due, seq).
func less(a, b *Event) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

// push adds e to the heap.
func (k *Kernel) push(e *Event) {
	e.index = len(k.queue)
	k.queue = append(k.queue, e)
	k.up(e.index)
}

// remove takes the event at heap index i out of the queue.
func (k *Kernel) remove(i int) {
	q := k.queue
	n := len(q) - 1
	e := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	k.queue = q[:n]
	e.index = -1
	if i != n && !k.down(i) {
		k.up(i)
	}
}

// up moves the event at index i towards the root until its parent is
// smaller.
func (k *Kernel) up(i int) {
	q := k.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down moves the event at index i towards the leaves until both children
// are larger, and reports whether it moved.
func (k *Kernel) down(i0 int) bool {
	q := k.queue
	n := len(q)
	e := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(q[r], q[c]) {
			c = r
		}
		if !less(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > i0
}
