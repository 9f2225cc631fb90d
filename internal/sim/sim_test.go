package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyKernel(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Fatal("Step on empty kernel should return false")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(5*time.Millisecond, func() {
		k.After(7*time.Millisecond, func() { at = k.Now() })
	})
	k.Run()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(time.Millisecond, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	e.Cancel() // double cancel is a no-op
}

func TestCancelFromEarlierEvent(t *testing.T) {
	k := NewKernel(1)
	fired := false
	later := k.At(10*time.Millisecond, func() { fired = true })
	k.At(5*time.Millisecond, func() { later.Cancel() })
	k.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(10 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want deadline 10ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 live event left", k.Pending())
	}
	// Continue to the remaining event.
	k.RunUntil(time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second RunUntil, want 3", len(fired))
	}
	if k.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", k.Now())
	}
}

func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(10*time.Millisecond, func() { fired = true })
	k.RunUntil(10 * time.Millisecond)
	if !fired {
		t.Fatal("event due exactly at deadline did not fire")
	}
}

func TestHalt(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.At(1*time.Millisecond, func() { count++; k.Halt() })
	k.At(2*time.Millisecond, func() { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (halted after first event)", count)
	}
	k.Run() // resume
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*time.Millisecond, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewKernel(1).After(-time.Millisecond, func() {})
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewKernel(42), NewKernel(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed kernels diverged")
		}
	}
}

func TestFiredCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 25; i++ {
		k.After(Time(i)*time.Millisecond, func() {})
	}
	k.Run()
	if k.Fired() != 25 {
		t.Fatalf("Fired = %d, want 25", k.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestQuickEventOrderProperty(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		k := NewKernel(7)
		var seen []Time
		var max Time
		for _, d := range delaysMS {
			due := Time(d) * time.Millisecond
			if due > max {
				max = due
			}
			k.At(due, func() { seen = append(seen, k.Now()) })
		}
		k.Run()
		if len(seen) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to fire.
func TestQuickCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%40) + 1
		k := NewKernel(3)
		fired := make([]bool, count)
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = k.At(Time(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i%64)) != 0 {
				events[i].Cancel()
			}
		}
		k.Run()
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i%64)) != 0
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of Reset, Cancel, one-shot At and Step fires
// events in the order a reference model predicts, where every arming takes
// the next sequence number and a cancelled event leaves the queue at once.
// Every third re-armable event re-arms itself from inside its own callback
// on its first firing.
func TestQuickCancelResetModel(t *testing.T) {
	type armed struct {
		due Time
		seq int
	}
	f := func(ops []uint16) bool {
		k := NewKernel(5)
		var got, want []int
		ref := map[int]armed{}
		var refSeq int
		var refNow Time
		// rearmed and refRearmed record which events have used their one
		// self-re-arm, in the kernel and in the model respectively.
		rearmed, refRearmed := map[int]bool{}, map[int]bool{}
		selfRearms := func(id int, done map[int]bool) bool { return id < 8 && id%3 == 0 && !done[id] }
		var events []*Event
		for id := 0; id < 8; id++ {
			events = append(events, k.NewEvent(func() {
				got = append(got, id)
				if selfRearms(id, rearmed) {
					rearmed[id] = true
					events[id].Reset(k.Now() + Time(id+1)*time.Millisecond)
				}
			}))
		}
		refStep := func() {
			best, found := 0, false
			for id, a := range ref {
				if b := ref[best]; !found || a.due < b.due || (a.due == b.due && a.seq < b.seq) {
					best, found = id, true
				}
			}
			if !found {
				return
			}
			refNow = ref[best].due
			delete(ref, best)
			want = append(want, best)
			if selfRearms(best, refRearmed) {
				refRearmed[best] = true
				ref[best] = armed{refNow + Time(best+1)*time.Millisecond, refSeq}
				refSeq++
			}
		}
		for _, op := range ops {
			id := int(op>>2) % len(events)
			delay := Time(op>>5%8) * time.Millisecond
			switch op % 4 {
			case 0:
				events[id].Reset(k.Now() + delay)
				ref[id] = armed{refNow + delay, refSeq}
				refSeq++
			case 1:
				events[id].Cancel()
				delete(ref, id)
			case 2:
				// At is Reset on a fresh event: it joins the same queue.
				nid := len(events)
				events = append(events, k.At(k.Now()+delay, func() { got = append(got, nid) }))
				ref[nid] = armed{refNow + delay, refSeq}
				refSeq++
			case 3:
				k.Step()
				refStep()
			}
			if k.Pending() != len(ref) || k.Now() != refNow {
				return false
			}
		}
		k.Run()
		for len(ref) > 0 {
			refStep()
		}
		if len(got) != len(want) || k.Pending() != 0 {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelLeavesQueueAtOnce(t *testing.T) {
	k := NewKernel(1)
	a := k.At(time.Millisecond, func() {})
	k.At(2*time.Millisecond, func() {})
	a.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after Cancel, want 1 live event", k.Pending())
	}
	a.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after a second Cancel, want 1", k.Pending())
	}
}

func TestResetPendingMovesWithFreshSeq(t *testing.T) {
	k := NewKernel(1)
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	a := k.At(5*time.Millisecond, rec("a"))
	k.At(5*time.Millisecond, rec("b"))
	c := k.At(10*time.Millisecond, rec("c"))
	a.Reset(5 * time.Millisecond) // same instant, now behind b
	c.Reset(time.Millisecond)     // moves ahead of both
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d after re-arming queued events, want 3", k.Pending())
	}
	k.Run()
	if want := "c b a"; strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if k.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", k.Now())
	}
}

func TestResetFromOwnFire(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	var e *Event
	e = k.NewEvent(func() {
		at = append(at, k.Now())
		if len(at) < 3 {
			e.Reset(k.Now() + 10*time.Millisecond)
		}
	})
	if k.Pending() != 0 {
		t.Fatal("NewEvent armed the event")
	}
	e.Reset(time.Millisecond)
	k.Run()
	want := []Time{time.Millisecond, 11 * time.Millisecond, 21 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestResetClearsCancelled(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	e := k.NewEvent(func() { fired++ })
	e.Reset(time.Millisecond)
	e.Cancel()
	e.Reset(2 * time.Millisecond)
	if e.Cancelled() {
		t.Fatal("Cancelled() = true after re-arming")
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	a := k.At(time.Millisecond, func() {})
	k.At(2*time.Millisecond, func() { fired = true })
	k.Step()
	a.Cancel() // a has fired: must not disturb the queue
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	k.Run()
	if !fired {
		t.Fatal("cancelling a fired event removed another event")
	}
}

func TestResetPastPanics(t *testing.T) {
	k := NewKernel(1)
	e := k.NewEvent(func() {})
	k.RunUntil(10 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("re-arming in the past did not panic")
		}
	}()
	e.Reset(5 * time.Millisecond)
}

// BenchmarkKernelThroughput measures one schedule-and-fire round trip: a
// one-shot At, and the re-arm form the hypervisor's timers use, which
// allocates nothing.
func BenchmarkKernelThroughput(b *testing.B) {
	b.Run("oneshot", func(b *testing.B) {
		k := NewKernel(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.After(time.Millisecond, func() {})
			k.Step()
		}
	})
	b.Run("rearm", func(b *testing.B) {
		k := NewKernel(1)
		e := k.NewEvent(func() {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Reset(k.Now() + time.Millisecond)
			k.Step()
		}
	})
}
