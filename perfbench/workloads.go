package main

import (
	"fmt"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	services "cloudmonatt/internal/workload"
)

// A workload is one Table 1 request mix driven through the full Fig. 3
// chain (customer → controller → attestation server → cloud server) of a
// default in-process cloudsim testbed, by one customer in a closed loop.
type workload struct {
	name      string
	servers   int
	perServer int
	// service names the guest workload of the i-th launched VM.
	service func(i int) string
	// periodic arms cpu-availability at periodicFreq on every VM.
	periodic bool
	// heapWindow is after how many operations heap_peak_mb is read. The
	// in-memory ledger and span store grow with every operation, so the
	// peak is taken after a fixed amount of work, not a fixed time.
	heapWindow int
	// costWindow, when set, is how many leading operations every other
	// end-to-end metric covers: lifecycle-churn's per-cycle cost grows with
	// the VMs launched so far (each launch extends the host's measurement
	// log, which every later startup attestation carries), so over a fixed
	// time a faster program would pay for a longer history. A run goes on
	// past its duration until both windows are complete.
	costWindow int
	// knownDefect reports whether an unhealthy verdict for this property is
	// the recorded covert-channel false alarm. It is counted in ok_rate and
	// verdict.false_alarm_rate, but neither fails the operation nor makes
	// the run incorrect.
	knownDefect func(p properties.Property) bool
	op          func(f *fleet, i int) opResult
}

// periodicFreq is the paper's Fig. 10 monitoring period.
const periodicFreq = 5 * time.Second

// periodicStep is how far one periodic-fleet operation advances virtual
// time before draining every VM: one monitoring period.
const periodicStep = periodicFreq

// fleet is one assembled testbed with its customer and running VMs.
type fleet struct {
	tb  *cloudsim.Testbed
	cu  *cloudsim.Customer
	vms []vmInfo
	tr  *tracer // nil outside the traced run
}

type vmInfo struct {
	vid     string
	service string
}

// verdict is one verified verdict the customer received.
type verdict struct {
	vid     string
	prop    properties.Property
	healthy bool
	reason  string
}

// opResult is what one customer operation delivered.
type opResult struct {
	verdicts []verdict
	// vlat holds the modeled (virtual-clock) latency of each one-time
	// attestation in the operation.
	vlat []time.Duration
	// wrongLaunch counts launches of a benign VM that were refused or whose
	// startup attestation came back unhealthy.
	wrongLaunch int
	err         error
}

var workloads = []*workload{
	{
		name: "oneshot-integrity", servers: 3, perServer: 2, heapWindow: 4000,
		service: func(int) string { return "idle" },
		op:      oneshotIntegrity,
	},
	// Known defect: the covert-channel detector raises false alarms on
	// benign CPU-bound service VMs (database, web, app) in a fraction of a
	// percent of attestations, deterministically per seed, and each alarm
	// triggers a migration. They lower ok_rate and are reported as
	// verdict.false_alarm_rate; they are not counted in failed.
	{
		name: "oneshot-window", servers: 3, perServer: 8, heapWindow: 800,
		service: denseService,
		knownDefect: func(p properties.Property) bool {
			return p == properties.CovertChannelFreedom
		},
		op: oneshotWindow,
	},
	{
		name: "lifecycle-churn", servers: 3, perServer: 2, heapWindow: 1200, costWindow: 1200,
		service: func(int) string { return "idle" },
		op:      lifecycleChurn,
	},
	// Arms cpu-availability only, the paper's Fig. 10 property. With
	// covert-channel-freedom streams armed as well, three runs of seed 1
	// gave 8, 12 and 11 false alarms in the same 1152 verdicts: the
	// engine's virtual-time schedule depends on goroutine interleaving, so
	// this workload's verdict digest is not a pure function of the seed
	// either.
	{
		name: "periodic-fleet", servers: 3, perServer: 8, heapWindow: 16,
		service: denseService, periodic: true,
		op: periodicFleet,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// denseService runs the paper's six cloud services round-robin.
func denseService(i int) string { return services.ServiceNames[i%len(services.ServiceNames)] }

// launchRequest is every benchmark VM's launch: all four properties, so
// each launch includes the startup-attestation stage, with the guest's
// process allowlist and an SLA floor every benign service meets.
func launchRequest(service string) controller.LaunchRequest {
	return controller.LaunchRequest{
		ImageName: "fedora", Flavor: "small", Workload: service,
		Props:     properties.All,
		Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
		MinShare:  minShare, Pin: -1,
	}
}

// minShare is the cpu-availability SLA floor the benchmark VMs request.
// The I/O-bound services (file, stream, mail) use about 8-10% of a CPU,
// and as little as 5% in a one-second window, so the default 25% floor
// would flag benign VMs.
const minShare = 0.02

// build assembles the workload's testbed and launches its fleet. network
// is nil for the default in-memory network.
func (w *workload) build(seed int64, network rpc.Network) (*fleet, error) {
	tb, err := cloudsim.New(cloudsim.Options{Seed: seed, Servers: w.servers, Network: network})
	if err != nil {
		return nil, fmt.Errorf("assembling testbed: %w", err)
	}
	cu, err := tb.NewCustomer("bench-customer")
	if err != nil {
		return nil, fmt.Errorf("connecting customer: %w", err)
	}
	f := &fleet{tb: tb, cu: cu}
	perServer := make(map[string]int)
	for i := 0; i < w.servers*w.perServer; i++ {
		svc := w.service(i)
		res, err := cu.Launch(launchRequest(svc))
		if err != nil {
			return nil, fmt.Errorf("launching fleet VM %d: %w", i, err)
		}
		if !res.OK || !res.Verdict.Healthy {
			return nil, fmt.Errorf("launching fleet VM %d: refused: %s", i, res.Reason)
		}
		f.vms = append(f.vms, vmInfo{vid: res.Vid, service: svc})
		perServer[res.Server]++
	}
	for name, n := range perServer {
		if n != w.perServer || len(perServer) != w.servers {
			return nil, fmt.Errorf("fleet shape: %s holds %d VMs across %d servers, want %d × %d",
				name, n, len(perServer), w.servers, w.perServer)
		}
	}
	return f, nil
}

// arm starts the workload's periodic streams, if it has any.
func (w *workload) arm(f *fleet) error {
	if !w.periodic {
		return nil
	}
	for _, vm := range f.vms {
		if err := f.cu.StartPeriodic(vm.vid, properties.CPUAvailability, periodicFreq); err != nil {
			return fmt.Errorf("arming periodic attestation on %s: %w", vm.vid, err)
		}
	}
	return nil
}

// attest is one end-verified one-time attestation, timed on the virtual clock.
func (f *fleet) attest(res *opResult, vid string, p properties.Property) {
	start := f.tb.Clock.Now()
	v, err := f.cu.Attest(vid, p)
	if err != nil {
		res.err = err
		return
	}
	res.vlat = append(res.vlat, f.tb.Clock.Now()-start)
	res.verdicts = append(res.verdicts, verdict{vid: vid, prop: p, healthy: v.Healthy, reason: v.Reason})
}

// oneshotIntegrity attests runtime integrity round-robin over the fleet.
func oneshotIntegrity(f *fleet, i int) opResult {
	var res opResult
	f.attest(&res, f.vms[i%len(f.vms)].vid, properties.RuntimeIntegrity)
	return res
}

// oneshotWindow visits the fleet round-robin, attesting each VM's CPU
// availability and then its covert-channel freedom; each measures a one
// second virtual window.
func oneshotWindow(f *fleet, i int) opResult {
	var res opResult
	p := properties.CPUAvailability
	if i%2 == 1 {
		p = properties.CovertChannelFreedom
	}
	f.attest(&res, f.vms[(i/2)%len(f.vms)].vid, p)
	return res
}

// lifecycleChurn launches a VM with every property, attests its runtime
// integrity once and terminates it.
func lifecycleChurn(f *fleet, i int) opResult {
	var res opResult
	l, err := f.cu.Launch(launchRequest("idle"))
	if err != nil {
		res.err = err
		return res
	}
	if !l.OK || !l.Verdict.Healthy {
		res.wrongLaunch++
		return res
	}
	f.attest(&res, l.Vid, properties.RuntimeIntegrity)
	if err := f.cu.Terminate(l.Vid); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// periodicFleet advances virtual time by one monitoring period and drains
// every VM's periodic cpu-availability results.
func periodicFleet(f *fleet, i int) opResult {
	var res opResult
	var start int64
	if f.tr != nil {
		start = f.tr.now()
	}
	f.tb.RunFor(periodicStep)
	if f.tr != nil && f.tr.on.Load() {
		f.tr.add(span{Trace: int(f.tr.op.Load()), Name: "step", Start: start, End: f.tr.now()})
	}
	for _, vm := range f.vms {
		vs, err := f.cu.FetchPeriodic(vm.vid, properties.CPUAvailability)
		if err != nil {
			res.err = err
			return res
		}
		for _, v := range vs {
			res.verdicts = append(res.verdicts, verdict{vid: vm.vid, prop: v.Property, healthy: v.Healthy, reason: v.Reason})
		}
	}
	return res
}
