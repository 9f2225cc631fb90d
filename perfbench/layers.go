package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/pca"
)

// layerSnap is a snapshot of the public counters the layers keep.
type layerSnap struct {
	crypto        cryptoutil.OpCounts
	vnow          time.Duration
	fired         uint64
	ledgerLen     int
	ledgerFlushes uint64
	pca           pca.Stats
	counters      map[string]int64
	dueN, dueSum  int64
	infN, infSum  int64
	remediations  int
}

// controllerCounters and attestCounters are the registry counters the
// traced run differences (attestation-server counters summed over servers).
var (
	controllerCounters = []string{
		"reconcile/passes", "reconcile/requeues", "controller/rpc-retries",
		"controller/degraded-stale-reports", "controller/events-dropped",
	}
	attestCounters = []string{
		"attestsrv/rpc-retries", "periodic/ticks", "periodic/produced",
		"periodic/skipped", "periodic/failures", "periodic/dropped",
	}
)

func snapLayers(f *fleet) layerSnap {
	tb := f.tb
	s := layerSnap{
		crypto:        cryptoutil.Ops(),
		vnow:          tb.Clock.Now(),
		fired:         tb.Clock.Kernel().Fired(),
		ledgerLen:     tb.Ledger.Len(),
		ledgerFlushes: tb.Ledger.Metrics().Summary("ledger/flush").Count(),
		pca:           tb.PCA.CertStats(),
		counters:      make(map[string]int64),
		remediations:  len(tb.Ctrl.Events()),
	}
	for _, n := range controllerCounters {
		s.counters[n] = tb.Ctrl.Metrics().Counter(n).Value()
	}
	for _, as := range tb.AttestServers {
		reg := as.Metrics()
		for _, n := range attestCounters {
			s.counters[n] += reg.Counter(n).Value()
		}
		due := reg.IntSummary("periodic/due-batch").Snapshot()
		inf := reg.IntSummary("periodic/inflight").Snapshot()
		s.dueN += int64(due.Count)
		s.dueSum += due.Sum
		s.infN += int64(inf.Count)
		s.infSum += inf.Sum
	}
	return s
}

// simCal is the simulator's cost with no requests in flight.
type simCal struct {
	usPerVsec, nsPerEvent float64
}

// calibrateSim times tb.RunFor on the bare fleet until about a quarter of a
// second of wall time has passed.
func calibrateSim(f *fleet) simCal {
	k := f.tb.Clock.Kernel()
	v0, e0 := f.tb.Clock.Now(), k.Fired()
	start := time.Now()
	var wall time.Duration
	for wall < 250*time.Millisecond && f.tb.Clock.Now()-v0 < 1000*time.Second {
		f.tb.RunFor(time.Second)
		wall = time.Since(start)
	}
	vsec := (f.tb.Clock.Now() - v0).Seconds()
	events := float64(k.Fired() - e0)
	cal := simCal{usPerVsec: float64(wall.Microseconds()) / vsec}
	if events > 0 {
		cal.nsPerEvent = float64(wall.Nanoseconds()) / events
	}
	return cal
}

// timeCrypto times Identity.Sign and cryptoutil.Verify directly, in µs.
func timeCrypto() (signUs, verifyUs float64) {
	id := cryptoutil.MustIdentity("perfbench-timing")
	msg := make([]byte, 128)
	sig := id.Sign(msg)
	const n = 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		sig = id.Sign(msg)
	}
	signUs = float64(time.Since(start).Microseconds()) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		if !cryptoutil.Verify(id.Public(), msg, sig) {
			panic("perfbench: fresh signature does not verify")
		}
	}
	verifyUs = float64(time.Since(start).Microseconds()) / n
	return signUs, verifyUs
}

// traceBlock is how many operations run in each alternating block of a
// traced run: an even number, so oneshot-window's cpu-availability and
// covert-channel attestations are traced alike.
const traceBlock = 4

// executeTraced reports per-layer metrics from one phase whose operations
// are traced in alternate blocks: the traced blocks record spans, the
// untraced ones give the baseline latency for the tracing overhead, and
// the layers' counters and a CPU profile cover the whole phase.
func executeTraced(cfg config, stdout, stderr io.Writer) (*result, error) {
	w := cfg.workload
	tr := newTracer()
	var cal simCal
	f, _, err := setup(w, cfg.seed, tr, func(f *fleet) { cal = calibrateSim(f) })
	if err != nil {
		return nil, err
	}
	f.tr = tr
	r := newRunner(w, f)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	prof, err := os.Create(stem + ".cpu.prof")
	if err != nil {
		return nil, err
	}
	// lifecycle-churn's traced phase covers the same operations as its
	// end-to-end metrics: its first costWindow.
	lim := opLimits{minOps: max(w.costWindow, 2*traceBlock), maxOps: w.costWindow, traceBlock: traceBlock}
	before := snapLayers(f)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	ph := r.measure(cfg.dur, lim)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	after := snapLayers(f)
	signUs, verifyUs := timeCrypto()
	shares, err := attributeCPU(stem + ".cpu.prof")
	if err != nil {
		return nil, err
	}
	byOp := tr.opSpans()
	if err := writeSpans(stem+".spans.jsonl", byOp); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans %s.spans.jsonl, profile %s.cpu.prof\n", stem, stem)

	res := r.verdictResult(ph, stdout)
	tracedLat, untracedLat := ph.tracedLatencies()
	ops := float64(len(ph.recs))
	verdicts := float64(max(ph.verdicts, 1))
	perOp := func(x float64) float64 { return x / ops }
	perTracedOp := func(x float64) float64 { return x / float64(len(tracedLat)) }
	delta := func(n string) float64 { return float64(after.counters[n] - before.counters[n]) }
	self, hopTotal, calls := selfTimes(byOp)
	tr.mu.Lock()
	bytes, dials := tr.bytes, tr.dials
	tr.mu.Unlock()
	m := map[string]metric{}
	for _, e := range []string{"customer", "controller", "attestsrv", "server"} {
		m[e+".self_us"] = metric{perTracedOp(float64(self[e])) / 1e3, "us"}
	}
	m["sim.step_self_us"] = metric{perTracedOp(float64(self["step"])) / 1e3, "us"}
	for _, h := range hops {
		short := h[len("hop."):]
		m[h+"_us"] = metric{perTracedOp(float64(hopTotal[h])) / 1e3, "us"}
		m["rpc.calls_per_op."+short] = metric{perTracedOp(float64(calls[h])), "count/op"}
		m["rpc.bytes_per_op."+short] = metric{perTracedOp(float64(bytes[h])), "B/op"}
	}
	m["rpc.dials_per_op"] = metric{perTracedOp(float64(dials)), "count/op"}
	c := after.crypto.Sub(before.crypto)
	m["crypto.sign_per_verdict"] = metric{float64(c.Sign) / verdicts, "count/verdict"}
	m["crypto.verify_per_verdict"] = metric{float64(c.Verify) / verdicts, "count/verdict"}
	m["crypto.ecdh_per_verdict"] = metric{float64(c.ECDH) / verdicts, "count/verdict"}
	m["crypto.sign_us"] = metric{signUs, "us"}
	m["crypto.verify_us"] = metric{verifyUs, "us"}
	m["sim.vsec_per_op"] = metric{perOp((after.vnow - before.vnow).Seconds()), "vs/op"}
	m["verdict.false_alarm_rate"] = metric{float64(ph.knownWrong) / verdicts, "ratio"}
	m["virtual_latency_s"] = metric{ph.virtualLatency().Seconds(), "vs"}
	m["sim.events_per_op"] = metric{perOp(float64(after.fired - before.fired)), "count/op"}
	m["sim.us_per_vsec"] = metric{cal.usPerVsec, "us/vs"}
	m["sim.ns_per_event"] = metric{cal.nsPerEvent, "ns"}
	m["ledger.entries_per_op"] = metric{perOp(float64(after.ledgerLen - before.ledgerLen)), "count/op"}
	m["ledger.flushes_per_op"] = metric{perOp(float64(after.ledgerFlushes - before.ledgerFlushes)), "count/op"}
	issued := float64(after.pca.Issued - before.pca.Issued)
	hits := float64(after.pca.CacheHits - before.pca.CacheHits)
	m["pca.certs_per_op"] = metric{perOp(issued), "count/op"}
	m["pca.cache_hit_ratio"] = metric{ratio(hits, issued+hits), "ratio"}
	m["reconcile.passes_per_op"] = metric{perOp(delta("reconcile/passes")), "count/op"}
	m["reconcile.requeues_per_op"] = metric{perOp(delta("reconcile/requeues")), "count/op"}
	m["controller.remediations"] = metric{float64(after.remediations-before.remediations) + delta("controller/events-dropped"), "count"}
	m["rpc.retries"] = metric{delta("controller/rpc-retries") + delta("attestsrv/rpc-retries"), "count"}
	m["controller.degraded_serves"] = metric{delta("controller/degraded-stale-reports"), "count"}
	for _, n := range []string{"ticks", "produced", "skipped", "failures", "dropped"} {
		m["periodic."+n] = metric{perOp(delta("periodic/" + n)), "count/op"}
	}
	m["periodic.produced_per_tick"] = metric{ratio(delta("periodic/produced"), delta("periodic/ticks")), "ratio"}
	m["periodic.due_batch_mean"] = metric{ratio(float64(after.dueSum-before.dueSum), float64(after.dueN-before.dueN)), "count"}
	m["periodic.inflight_mean"] = metric{ratio(float64(after.infSum-before.infSum), float64(after.infN-before.infN)), "count"}
	rt := ph.rt
	m["gc.cycles_per_op"] = metric{perOp(rt[mGCCycles]), "count/op"}
	m["gc.cpu_share"] = metric{ratio(rt[mGCCPU], rt[mTotalCPU]), "ratio"}
	m["alloc.objects_per_verdict"] = metric{rt[mAllocObjects] / verdicts, "count/verdict"}
	for _, l := range cpuLayers {
		m["cpu_share."+l] = metric{shares[l], "ratio"}
	}
	tracedP50 := ms(quantile(tracedLat, 0.5))
	m["trace.op_p50_ms"] = metric{tracedP50, "ms"}
	m["trace.overhead_ratio"] = metric{ratio(tracedP50, ms(quantile(untracedLat, 0.5))), "ratio"}
	res.Metrics = m
	fmt.Fprintf(stderr, "%s seed %d traced run: %d ops (%d traced), %d verdicts\n",
		w.name, cfg.seed, len(ph.recs), len(tracedLat), ph.verdicts)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
