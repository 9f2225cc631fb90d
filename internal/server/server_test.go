package server

import (
	"crypto/rand"
	"crypto/sha256"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/image"
	"cloudmonatt/internal/pca"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
	"cloudmonatt/internal/wire"
	"cloudmonatt/internal/xen"
)

type rig struct {
	clock *vclock.Clock
	ca    *pca.PCA
	srv   *Server
}

func newRig(t *testing.T) *rig {
	t.Helper()
	ca, err := pca.New("pca", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.New(sim.NewKernel(17))
	srv, err := New(Config{
		Name:      "srv-1",
		Clock:     clock,
		PCPUs:     2,
		Capacity:  Capacity{VCPUs: 4, MemoryMB: 16384, DiskGB: 200},
		Certifier: ca,
		Rand:      rand.Reader,
	})
	if err != nil {
		t.Fatal(err)
	}
	ca.RegisterServer(srv.Name(), srv.Identity().Public())
	return &rig{clock: clock, ca: ca, srv: srv}
}

func smallSpec(vid, workload string) LaunchSpec {
	f, _ := image.FlavorByName("small")
	return LaunchSpec{
		Vid:         vid,
		ImageName:   "cirros",
		ImageDigest: sha256.Sum256([]byte("img")),
		Flavor:      f,
		Workload:    workload,
		Pin:         1,
	}
}

func TestLaunchAndInfo(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(time.Second)
	info, err := r.srv.Info("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Runtime <= 0 {
		t.Fatal("launched VM accumulated no runtime")
	}
	if info.State != "running" {
		t.Fatalf("state %q", info.State)
	}
}

func TestLaunchValidation(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err == nil {
		t.Fatal("duplicate Vid accepted")
	}
	if err := r.srv.Launch(smallSpec("vm-2", "no-such-workload")); err == nil {
		t.Fatal("unknown workload accepted")
	}
	big := smallSpec("vm-3", "idle")
	big.Flavor.VCPUs = 99
	if err := r.srv.Launch(big); err == nil {
		t.Fatal("over-capacity launch accepted")
	}
}

func TestCapacityAccounting(t *testing.T) {
	r := newRig(t)
	free0 := r.srv.Free()
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	free1 := r.srv.Free()
	if free1.VCPUs != free0.VCPUs-1 {
		t.Fatalf("vCPU accounting: %d -> %d", free0.VCPUs, free1.VCPUs)
	}
	if err := r.srv.Terminate("vm-1"); err != nil {
		t.Fatal(err)
	}
	if r.srv.Free() != free0 {
		t.Fatal("capacity not released on terminate")
	}
}

func TestSuspendResume(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "spinner")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(200 * time.Millisecond)
	if err := r.srv.Suspend("vm-1"); err != nil {
		t.Fatal(err)
	}
	info, _ := r.srv.Info("vm-1")
	at := info.Runtime
	r.clock.Advance(500 * time.Millisecond)
	info, _ = r.srv.Info("vm-1")
	if info.Runtime != at {
		t.Fatal("suspended VM kept running")
	}
	if err := r.srv.Resume("vm-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Resume("vm-1"); err == nil {
		t.Fatal("double resume accepted")
	}
	r.clock.Advance(500 * time.Millisecond)
	info, _ = r.srv.Info("vm-1")
	if info.Runtime <= at {
		t.Fatal("resumed VM did not run")
	}
}

func TestMigrateOut(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-1", "database")
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	out, err := r.srv.MigrateOut("vm-1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Vid != spec.Vid || out.Workload != spec.Workload {
		t.Fatalf("migrated spec %+v", out)
	}
	if _, err := r.srv.Info("vm-1"); err == nil {
		t.Fatal("VM still present after migrate-out")
	}
}

func TestMeasureProducesVerifiableEvidence(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "database")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(500 * time.Millisecond)
	req, err := properties.MapToMeasurements(properties.CPUAvailability)
	if err != nil {
		t.Fatal(err)
	}
	n3 := cryptoutil.MustNonce()
	before := r.clock.Now()
	ev, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: n3})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.VerifyEvidence(ev, r.ca.Name(), r.ca.PublicKey(), "vm-1", req, n3); err != nil {
		t.Fatalf("evidence does not verify: %v", err)
	}
	if got := r.clock.Now() - before; got < req.Window {
		t.Fatalf("windowed measurement advanced %v, want >= %v", got, req.Window)
	}
	if strings.Contains(ev.Cert.Subject, "srv-1") {
		t.Fatal("certificate reveals the server identity")
	}
}

func TestMeasureUnknownVM(t *testing.T) {
	r := newRig(t)
	req, _ := properties.MapToMeasurements(properties.RuntimeIntegrity)
	if _, err := r.srv.Measure(wire.MeasureRequest{Vid: "ghost", Req: req, N3: cryptoutil.MustNonce()}); err == nil {
		t.Fatal("measured a nonexistent VM")
	}
}

func TestEachMeasureUsesFreshSessionKey(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	req, _ := properties.MapToMeasurements(properties.RuntimeIntegrity)
	ev1, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: cryptoutil.MustNonce()})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: cryptoutil.MustNonce()})
	if err != nil {
		t.Fatal(err)
	}
	if cryptoutil.KeyEqual(ev1.AVK, ev2.AVK) {
		t.Fatal("attestation key reused across sessions (location privacy)")
	}
}

func TestDom0AbsorbsCollectionCost(t *testing.T) {
	r := newRig(t)
	if err := r.srv.Launch(smallSpec("vm-1", "idle")); err != nil {
		t.Fatal(err)
	}
	req, _ := properties.MapToMeasurements(properties.CPUAvailability)
	for i := 0; i < 5; i++ {
		if _, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: cryptoutil.MustNonce()}); err != nil {
			t.Fatal(err)
		}
	}
	r.clock.Advance(time.Second)
	if r.srv.dom0.TotalRuntime() <= 0 {
		t.Fatal("Dom0 did no measurement work")
	}
}

// TestIdleDom0StaysHalted pins the event-driven Dom0: with no measurement
// requested, the host VM is never woken, so it never preempts the
// CPU-bound guest sharing its pCPU.
func TestIdleDom0StaysHalted(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-1", "spinner")
	spec.Pin = 0 // share Dom0's pCPU
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	dom0 := r.srv.dom0VCPU
	dispatches, woke := dom0.Dispatches(), dom0.LastWake()
	r.clock.Advance(time.Second)
	if got := dom0.Dispatches(); got != dispatches {
		t.Fatalf("idle Dom0 dispatched %d times in one virtual second", got-dispatches)
	}
	if got := dom0.LastWake(); got != woke {
		t.Fatalf("idle Dom0 woke at %v with no work queued", got)
	}
	if info, _ := r.srv.Info("vm-1"); info.Runtime != time.Second {
		t.Fatalf("guest ran %v of the one second it had pCPU 0 to itself", info.Runtime)
	}
}

// TestDom0StartsCollectionAtRequest pins that a measurement's collection
// work runs in Dom0 from the virtual instant of the request, preempting
// the guest on its pCPU at once rather than at a later poll.
func TestDom0StartsCollectionAtRequest(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-1", "spinner")
	spec.Pin = 0
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	type segment struct{ start, end sim.Time }
	var dom0Runs []segment
	r.srv.Hypervisor().Observe(xen.RunSegmentFunc(func(v *xen.VCPU, start, end sim.Time) {
		if v == r.srv.dom0VCPU {
			dom0Runs = append(dom0Runs, segment{start, end})
		}
	}))
	// An instant off any 5 ms grid.
	r.clock.Advance(502300 * time.Microsecond)
	req, _ := properties.MapToMeasurements(properties.CPUAvailability)
	at := r.clock.Now()
	if _, err := r.srv.Measure(wire.MeasureRequest{Vid: "vm-1", Req: req, N3: cryptoutil.MustNonce()}); err != nil {
		t.Fatal(err)
	}
	cost := r.srv.cfg.Dom0CostPerCollection
	want := []segment{{at, at + cost}}
	if len(dom0Runs) != 1 || dom0Runs[0] != want[0] {
		t.Fatalf("Dom0 ran %v for a request at %v, want %v", dom0Runs, at, want)
	}
}

// TestConcurrentMeasuresDrainDom0 queues collection work from several
// goroutines while another advances the clock: every queued collection is
// executed (no wakeup is lost), and under -race it shows Dom0's queue
// needs no lock of its own. The requests are unwindowed, so the test
// covers the Dom0 path alone.
func TestConcurrentMeasuresDrainDom0(t *testing.T) {
	r := newRig(t)
	for _, vid := range []string{"vm-1", "vm-2"} {
		spec := smallSpec(vid, "database")
		spec.Pin = 0
		if err := r.srv.Launch(spec); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := properties.MapToMeasurements(properties.RuntimeIntegrity)
	const workers, each = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(vid string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := r.srv.Measure(wire.MeasureRequest{Vid: vid, Req: req, N3: cryptoutil.MustNonce()}); err != nil {
					errs <- err
				}
			}
		}([]string{"vm-1", "vm-2"}[w%2])
	}
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				r.clock.Advance(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-stopped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	r.clock.Advance(100 * time.Millisecond)
	if got, want := r.srv.dom0.TotalRuntime(), workers*each*r.srv.cfg.Dom0CostPerCollection; got != want {
		t.Fatalf("Dom0 ran %v, want %v for %d collections", got, want, workers*each)
	}
	if st := r.srv.dom0VCPU.State(); st != xen.StateBlocked {
		t.Fatalf("Dom0 is %v after draining its queue, want blocked", st)
	}
}

func TestAttackWorkloads(t *testing.T) {
	r := newRig(t)
	spec := smallSpec("vm-a", "attack:cpu-starver")
	spec.Flavor.VCPUs = 2
	if err := r.srv.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Launch(smallSpec("vm-c", "attack:covert-sender")); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(500 * time.Millisecond)
	info, _ := r.srv.Info("vm-a")
	if info.Runtime <= 0 {
		t.Fatal("starver attack never ran")
	}
}
