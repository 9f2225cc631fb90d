// Command perfbench is the repository benchmark. It drives the paper's
// Table 1 APIs — one-time attestation, periodic attestation, launch and
// terminate — through the full Fig. 3 chain (customer → controller →
// attestation server → cloud server) of a default in-process cloudsim
// testbed, with one customer in a closed loop, and checks every verdict
// against ground truth.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload oneshot-integrity --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run, with
// times scaled to a nominal host speed measured by reference bursts that
// are interleaved with the operations (see hostref.go).
// With --trace 1 it reports per-layer metrics from a run that traces
// alternate blocks of operations: the traced blocks time every RPC hop from
// outside through the in-memory network's Intercept hook, the untraced ones
// give the tracing overhead, and over the whole run it differences the
// layers' public counters and attributes a CPU profile by package. The
// traced run writes its spans and profile under --out.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload *workload
	seed     int64
	dur      time.Duration
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: oneshot-integrity, oneshot-window, lifecycle-churn, periodic-fleet")
	seed := fs.Int64("seed", 1, "seed for the testbed, its fleet and every simulated model")
	seconds := fs.Float64("seconds", 10, "wall seconds to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics from an untraced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's spans and CPU profile")
	refServer := fs.Bool("ref-server", false, "serve reference bursts on stdin/stdout (the child process an untraced run starts)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refServer {
		return serveRef(os.Stdin, os.Stdout)
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{workload: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	res, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// An untraced run assembles the workload's testbed at least minSetups
// times and until setupBudget of wall time is spent; setup_s is the median,
// each set-up scaled by the reference burst that follows it, which lasts
// at least minSetupBurst.
const (
	minSetups     = 5
	maxSetups     = 40
	setupBudget   = 1500 * time.Millisecond
	minSetupBurst = 25 * time.Millisecond
)

func execute(cfg config, stdout, stderr io.Writer) (*result, error) {
	meta := runMetadata(cfg)
	if b, err := json.Marshal(meta); err == nil {
		fmt.Fprintf(stdout, "meta %s\n", b)
	}
	if cfg.trace {
		return executeTraced(cfg, stdout, stderr)
	}
	ref, err := startRefProc()
	if err != nil {
		return nil, err
	}
	res, err := measureUntraced(cfg, ref, stdout, stderr)
	if cerr := ref.close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// measureUntraced is the untraced run: set-ups, then the measured phase,
// then more set-ups, with reference bursts from ref interleaved.
func measureUntraced(cfg config, ref *refProc, stdout, stderr io.Writer) (*result, error) {
	w := cfg.workload
	var setups, rawSetups []time.Duration
	timedSetup := func() (*fleet, error) {
		f, d, err := setup(w, cfg.seed, nil, nil)
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, d)
		sp := ref.burst(max(time.Duration(float64(d)*refShare), minSetupBurst)).speed()
		setups = append(setups, time.Duration(float64(d)*sp.wall))
		return f, nil
	}
	f, err := timedSetup()
	if err != nil {
		return nil, err
	}
	r := newRunner(w, f)
	r.ref = ref
	// A run goes on past its duration until heapWindow and costWindow are
	// complete, so a slower program is measured over the same work.
	ph := r.measure(cfg.dur, opLimits{minOps: max(w.heapWindow, w.costWindow)})
	// The remaining set-ups run after the measured phase so their testbeds
	// cannot weigh on its heap or CPU.
	for len(setups) < minSetups || (sumDur(rawSetups) < setupBudget && len(setups) < maxSetups) {
		if _, err := timedSetup(); err != nil {
			return nil, err
		}
	}
	res := r.verdictResult(ph, stdout)
	n := len(ph.recs)
	if w.costWindow > 0 {
		n = w.costWindow
	}
	wall, _, verdicts, failed, alarmed := ph.span(0, n)
	// Times are multiplied by the host speed, so rates are divided by it.
	latency := func(q float64) float64 {
		return ph.sliced(n, func(lo, hi int, sp hostSpeed) float64 {
			return ms(quantile(ph.latencies(lo, hi), q)) * sp.wall
		})
	}
	rate := func(f func(wall, cpu time.Duration, ops, verdicts int) float64) float64 {
		return ph.sliced(n, func(lo, hi int, sp hostSpeed) float64 {
			wall, cpu, verdicts, _, _ := ph.span(lo, hi)
			return f(time.Duration(float64(wall)*sp.wall), time.Duration(float64(cpu)*sp.cpu), hi-lo, verdicts)
		})
	}
	res.Metrics = map[string]metric{
		"op_p50_ms":      {latency(0.5), "ms"},
		"op_p90_ms":      {latency(0.9), "ms"},
		"ops_per_s":      {rate(func(wall, _ time.Duration, ops, _ int) float64 { return float64(ops) / wall.Seconds() }), "1/s"},
		"verdicts_per_s": {rate(func(wall, _ time.Duration, _, v int) float64 { return float64(v) / wall.Seconds() }), "1/s"},
		"cpu_ms_per_verdict": {rate(func(_, cpu time.Duration, _, v int) float64 {
			return ms(cpu) / float64(max(v, 1))
		}), "ms"},
		"alloc_kb_per_verdict": {ph.recs[n-1].alloc / 1024 / float64(max(verdicts, 1)), "KiB"},
		"heap_peak_mb":         {float64(ph.heapPeak) / (1 << 20), "MiB"},
		"ok_rate":              {1 - float64(failed+alarmed)/float64(n), "ratio"},
		"setup_s":              {medianDur(setups).Seconds(), "s"},
	}
	sp := ph.refSpan(0, n).speed()
	fmt.Fprintf(stderr, "%s seed %d: %d ops, %d verdicts in %.2fs of operations (metrics over the first %d ops, %.2fs); "+
		"host speed %.3f (wall) %.3f (CPU) of nominal; unscaled op p50 %.4g ms, %.4g ops/s, set-up %.4g s over %d set-ups\n",
		w.name, cfg.seed, len(ph.recs), ph.verdicts, ph.recs[len(ph.recs)-1].end.Seconds(), n, wall.Seconds(),
		sp.wall, sp.cpu, ms(quantile(ph.latencies(0, n), 0.5)), float64(n)/wall.Seconds(),
		medianDur(rawSetups).Seconds(), len(setups))
	return res, nil
}

// setup assembles the workload's fleet, arms its periodic streams and warms
// every connection with one pass of operations. calibrate, when set, runs
// on the fleet before anything is armed.
func setup(w *workload, seed int64, tr *tracer, calibrate func(*fleet)) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := w.build(seed, tr.network())
	if err != nil {
		return nil, 0, err
	}
	if calibrate != nil {
		calibrate(f)
	}
	if err := w.arm(f); err != nil {
		return nil, 0, err
	}
	if err := warm(w, f); err != nil {
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// warm runs one operation per fleet VM (one for periodic-fleet, whose
// operation already touches every VM) so every connection exists before
// timing starts.
func warm(w *workload, f *fleet) error {
	n := len(f.vms)
	if w.periodic {
		n = 1
	}
	for i := 0; i < n; i++ {
		res := w.op(f, i)
		if res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	return nil
}

// verdictResult fills the correctness fields and prints the verdict digest
// and any wrong verdicts.
func (r *runner) verdictResult(ph *phase, stdout io.Writer) *result {
	fmt.Fprintf(stdout, "digest %s first %d verdicts (%s)\n", r.verdictDigest(), digestPrefix, r.w.name)
	if len(r.wrongBy) > 0 {
		keys := make([]string, 0, len(r.wrongBy))
		for k := range r.wrongBy {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := r.wrongBy[k]
			fmt.Fprintf(stdout, "wrong %d unhealthy verdicts: %s (first: %s)\n", c.n, k, c.first)
		}
	}
	if ph.knownWrong > 0 {
		fmt.Fprintf(stdout, "known defect: %d covert-channel false alarms on benign VMs (counted in ok_rate, not in failed)\n", ph.knownWrong)
	}
	_, _, _, failed, _ := ph.span(0, len(ph.recs))
	return &result{
		// Correct: every verdict end-verified (no RPC or verification
		// error), every benign launch accepted, and every unhealthy verdict
		// of the known false-alarm class only.
		Correct:   ph.rpcErrs == 0 && ph.wrong == 0,
		Attempted: len(ph.recs),
		Failed:    failed,
	}
}

// virtualLatency is the mean modeled latency of one attestation: of the
// one-time attestations where the workload issues them, else of the
// periodic appraisals.
func (ph *phase) virtualLatency() time.Duration {
	if ph.vlatN > 0 {
		return ph.vlatSum / time.Duration(ph.vlatN)
	}
	return ph.periodicVLat
}

func sumDur(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t
}

func medianDur(xs []time.Duration) time.Duration {
	return quantile(append([]time.Duration(nil), xs...), 0.5)
}
