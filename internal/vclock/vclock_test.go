package vclock

import (
	"testing"
	"time"

	"cloudmonatt/internal/sim"
)

func TestAdvanceRunsKernel(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k)
	fired := false
	k.At(50*time.Millisecond, func() { fired = true })
	c.Advance(100 * time.Millisecond)
	if !fired {
		t.Fatal("event within the advance window did not fire")
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestAdvanceNonPositiveNoop(t *testing.T) {
	c := New(sim.NewKernel(1))
	c.Advance(0)
	c.Advance(-time.Second)
	if c.Now() != 0 {
		t.Fatalf("Now = %v after no-op advances", c.Now())
	}
}

func TestSequentialAdvances(t *testing.T) {
	c := New(sim.NewKernel(1))
	for i := 0; i < 10; i++ {
		c.Advance(10 * time.Millisecond)
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("Now = %v, want 100ms", c.Now())
	}
}

func TestKernelAccess(t *testing.T) {
	k := sim.NewKernel(1)
	if New(k).Kernel() != k {
		t.Fatal("Kernel() does not return the wrapped kernel")
	}
}

// TestDoExcludesAdvance has Do and a periodic kernel event share unguarded
// state; under -race it fails unless Do holds the clock Advance holds.
func TestDoExcludesAdvance(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k)
	queued, served := 0, 0
	var tick *sim.Event
	tick = k.NewEvent(func() {
		served += queued
		queued = 0
		tick.Reset(k.Now() + time.Millisecond)
	})
	tick.Reset(time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 100; i++ {
		c.Do(func() { queued++ })
	}
	<-done
	c.Advance(time.Millisecond)
	if served != 100 {
		t.Fatalf("served %d of 100 queued items", served)
	}
}
