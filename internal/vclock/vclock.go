// Package vclock provides the shared virtual clock of the cloud testbed.
//
// Every entity of the in-process cloud (hypervisors, monitors, the launch
// pipeline, periodic attestation) runs against one discrete-event kernel.
// The Clock serializes access: whoever needs virtual time to pass —
// the launch pipeline modeling a stage latency, or a cloud server serving
// a windowed measurement — calls Advance, which runs the kernel forward.
// RPC handlers execute in their own goroutines, but the testbed's logical
// control flow is sequential (a caller blocks on its RPC while the handler
// advances time), so the mutex is about safety, not scheduling.
package vclock

import (
	"sync"
	"time"

	"cloudmonatt/internal/sim"
)

// Clock is the shared virtual clock.
type Clock struct {
	mu sync.Mutex
	k  *sim.Kernel
}

// New wraps a simulation kernel.
func New(k *sim.Kernel) *Clock { return &Clock{k: k} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k.Now()
}

// Advance runs the kernel forward by d.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.k.RunUntil(c.k.Now() + d)
}

// Do runs f with the clock held, so the changes f makes to the simulation
// (queueing work for a vCPU and waking it, say) are atomic with respect to
// Advance: a concurrent Advance runs entirely before or entirely after
// them. f must not call back into the Clock.
func (c *Clock) Do(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// Kernel exposes the underlying kernel for entity construction (domain
// creation etc.). Callers must not run it concurrently with Advance.
func (c *Clock) Kernel() *sim.Kernel { return c.k }
