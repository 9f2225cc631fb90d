package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cloudmonatt/internal/properties"
)

// runtime/metrics samples a phase reads at its start and end.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mHeapLive     = "/gc/heap/live:bytes"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

var runtimeSampleNames = []string{mAllocBytes, mAllocObjects, mGCCycles, mGCCPU, mTotalCPU}

type runtimeSnap map[string]float64

func readRuntime() runtimeSnap {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(runtimeSnap, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// liveHeap collects garbage and reads the heap left live. The in-memory
// ledger and span store only grow, so this is the peak live heap so far.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runner drives one workload's operations against one fleet and keeps the
// verdict record (ground-truth check and digest) across phases.
type runner struct {
	w      *workload
	f      *fleet
	nextOp int
	// ref, when set, interleaves reference bursts with the operations.
	ref *refProc

	digest     [32]byte
	digestN    int
	verdictLog []verdict // the first digestPrefix verdicts
	// wrongBy counts unhealthy verdicts by property and guest service,
	// keeping the first reason given.
	wrongBy map[string]*wrongClass
}

type wrongClass struct {
	n     int
	first string
}

// digestPrefix is how many leading verdicts the seed digest covers. A timed
// run completes a machine-dependent number of operations, so only a fixed
// prefix can be a pure function of the seed.
const digestPrefix = 256

func newRunner(w *workload, f *fleet) *runner {
	return &runner{w: w, f: f, wrongBy: make(map[string]*wrongClass)}
}

// phase is the record of one timed stretch of closed-loop operations.
type phase struct {
	recs                       []opRecord
	verdicts                   int
	rpcErrs, wrong, knownWrong int
	vlatSum                    time.Duration
	vlatN                      int
	heapPeak                   uint64        // live heap after the first heapWindow operations (0 if fewer ran)
	periodicVLat               time.Duration // mean modeled appraisal latency (periodic streams)
	rt                         runtimeSnap   // runtime/metrics deltas over the whole phase
}

// opRecord is one measured operation.
type opRecord struct {
	lat      time.Duration // wall time of the operation
	end      time.Duration // phase time at its end
	cpu      time.Duration // process CPU spent in the phase by its end
	alloc    float64       // heap bytes allocated in the phase by its end
	verdicts int
	traced   bool
	// failed: the operation returned an error, a benign launch was
	// refused, a verdict other than a known false alarm was unhealthy, or
	// a periodic tick was shed.
	failed bool
	// alarmed: the operation completed but delivered at least one known
	// false alarm (see workload.knownDefect).
	alarmed bool
	// ref is the reference burst run after the operation, if any; its
	// time is in neither end nor cpu.
	ref refSample
}

// opLimits bounds a measured phase in operations as well as time.
type opLimits struct {
	// minOps keeps the phase running past its duration until this many
	// operations are done, so that windows of a fixed amount of work
	// (heapWindow, costWindow) are always complete.
	minOps int
	// maxOps, when set, ends the phase after this many operations.
	maxOps int
	// traceBlock, when set, records spans for alternate blocks of this
	// many operations and leaves the blocks between untraced, so traced
	// and untraced operations cover the same history.
	traceBlock int
}

// measure runs operations back to back until d of wall time has passed,
// within lim. Each traced operation also gets a root span.
func (r *runner) measure(d time.Duration, lim opLimits) *phase {
	tr := r.f.tr
	ph := &phase{}
	runtime.GC()
	buf := []metrics.Sample{{Name: mAllocBytes}}
	appr0 := r.periodicAppraisals()
	rt0 := readRuntime()
	metrics.Read(buf)
	alloc0 := buf[0].Value.Uint64()
	cpu0 := processCPU()
	start := time.Now()
	var paused refSample
	var sinceRef time.Duration
	for (time.Since(start) < d || len(ph.recs) < max(lim.minOps, 1)) && (lim.maxOps == 0 || len(ph.recs) < lim.maxOps) {
		i := r.nextOp
		r.nextOp++
		shedBefore := r.shedTicks()
		traced := lim.traceBlock > 0 && (len(ph.recs)/lim.traceBlock)%2 == 1
		var spanStart int64
		if tr != nil {
			tr.on.Store(traced)
		}
		if traced {
			tr.op.Store(int64(i))
			spanStart = tr.now()
		}
		t0 := time.Now()
		res := r.w.op(r.f, i)
		lat := time.Since(t0)
		if traced {
			tr.add(span{Trace: i, Name: "op", Start: spanStart, End: tr.now()})
			tr.on.Store(false)
		}
		failed, alarmed := r.record(ph, res)
		rec := opRecord{lat: lat, verdicts: len(res.verdicts), traced: traced, failed: failed || r.shedTicks() > shedBefore, alarmed: alarmed}
		metrics.Read(buf)
		rec.alloc = float64(buf[0].Value.Uint64() - alloc0)
		rec.cpu = processCPU() - cpu0 - paused.cpu
		rec.end = time.Since(start) - paused.wall
		if sinceRef += lat; r.ref != nil && sinceRef >= refEvery {
			rec.ref = r.ref.burst(time.Duration(float64(sinceRef) * refShare))
			paused = paused.add(rec.ref)
			sinceRef = 0
		}
		ph.recs = append(ph.recs, rec)
		if len(ph.recs) == r.w.heapWindow {
			ph.heapPeak = liveHeap()
		}
	}
	ph.rt = readRuntime()
	for k, v := range rt0 {
		ph.rt[k] -= v
	}
	if n, sum := r.periodicAppraisals().sub(appr0); n > 0 {
		ph.periodicVLat = sum / time.Duration(n)
	}
	return ph
}

// span sums the records [lo, hi): wall time, CPU, verdicts, failed
// operations and operations with a known false alarm.
func (ph *phase) span(lo, hi int) (wall, cpu time.Duration, verdicts, failed, alarmed int) {
	wall, cpu = ph.recs[hi-1].end, ph.recs[hi-1].cpu
	if lo > 0 {
		wall -= ph.recs[lo-1].end
		cpu -= ph.recs[lo-1].cpu
	}
	for _, rec := range ph.recs[lo:hi] {
		verdicts += rec.verdicts
		if rec.failed {
			failed++
		}
		if rec.alarmed {
			alarmed++
		}
	}
	return wall, cpu, verdicts, failed, alarmed
}

// Rates and percentiles are the median over up to maxSlices consecutive
// slices of at least minSliceOps operations, so a burst of interference
// that stalls a few slices of the run does not move them.
const (
	maxSlices   = 20
	minSliceOps = 10
)

// sliced is the median of f over consecutive slices of the first n
// records. f gets each slice's host speed (see hostRef): from the slice's
// own reference bursts, or the first n records' if the slice ran none.
func (ph *phase) sliced(n int, f func(lo, hi int, sp hostSpeed) float64) float64 {
	k := min(maxSlices, max(1, n/minSliceOps))
	all := ph.refSpan(0, n).speed()
	vals := make([]float64, k)
	for s := range vals {
		lo, hi := s*n/k, (s+1)*n/k
		sp := all
		if ref := ph.refSpan(lo, hi); ref.units > 0 {
			sp = ref.speed()
		}
		vals[s] = f(lo, hi, sp)
	}
	sort.Float64s(vals)
	if k%2 == 1 {
		return vals[k/2]
	}
	return (vals[k/2-1] + vals[k/2]) / 2
}

// refSpan sums the reference bursts run after records [lo, hi).
func (ph *phase) refSpan(lo, hi int) refSample {
	var sum refSample
	for _, rec := range ph.recs[lo:hi] {
		sum = sum.add(rec.ref)
	}
	return sum
}

func (ph *phase) latencies(lo, hi int) []time.Duration {
	lat := make([]time.Duration, 0, hi-lo)
	for _, rec := range ph.recs[lo:hi] {
		lat = append(lat, rec.lat)
	}
	return lat
}

// tracedLatencies splits the phase's operation latencies by whether the
// operation was traced.
func (ph *phase) tracedLatencies() (traced, untraced []time.Duration) {
	for _, rec := range ph.recs {
		if rec.traced {
			traced = append(traced, rec.lat)
		} else {
			untraced = append(untraced, rec.lat)
		}
	}
	return traced, untraced
}

// record checks one operation's verdicts against ground truth — every VM
// in every workload is benign, so every verdict must be healthy — and
// folds them into the digest. It reports whether the operation failed and
// whether it delivered a known false alarm. A known false alarm does not
// fail the operation: the attestation completed and its verdict verified,
// and the detector's error is the program's recorded defect, counted in
// ok_rate and verdict.false_alarm_rate instead.
func (r *runner) record(ph *phase, res opResult) (failed, alarmed bool) {
	if res.err != nil {
		ph.rpcErrs++
		failed = true
	}
	if res.wrongLaunch > 0 {
		ph.wrong += res.wrongLaunch
		failed = true
	}
	for _, d := range res.vlat {
		ph.vlatSum += d
		ph.vlatN++
	}
	ph.verdicts += len(res.verdicts)
	for _, v := range res.verdicts {
		if !v.healthy {
			if r.w.knownDefect != nil && r.w.knownDefect(v.prop) {
				ph.knownWrong++
				alarmed = true
			} else {
				ph.wrong++
				failed = true
			}
			key := fmt.Sprintf("%s on %s", v.prop, r.serviceOf(v.vid))
			if r.wrongBy[key] == nil {
				r.wrongBy[key] = &wrongClass{first: v.vid + ": " + v.reason}
			}
			r.wrongBy[key].n++
		}
		if r.digestN < digestPrefix {
			r.verdictLog = append(r.verdictLog, v)
			r.digestN++
			if r.digestN == digestPrefix {
				r.digest = digestOf(r.verdictLog)
			}
		}
	}
	return failed, alarmed
}

func (r *runner) serviceOf(vid string) string {
	for _, vm := range r.f.vms {
		if vm.vid == vid {
			return vm.service
		}
	}
	return "idle"
}

// verdictDigest is the hex SHA-256 of the leading (vid, property, healthy,
// reason) sequence, or "incomplete" when the run delivered fewer verdicts
// than the prefix.
func (r *runner) verdictDigest() string {
	if r.digestN < digestPrefix {
		return "incomplete"
	}
	return hex.EncodeToString(r.digest[:8])
}

func digestOf(vs []verdict) [32]byte {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%s|%s|%t|%s\n", v.vid, v.prop, v.healthy, v.reason)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// shedTicks counts periodic ticks the attestation servers skipped, failed
// or dropped.
func (r *runner) shedTicks() int {
	n := int64(0)
	for _, as := range r.f.tb.AttestServers {
		reg := as.Metrics()
		n += reg.Counter("periodic/skipped").Value() + reg.Counter("periodic/failures").Value() +
			reg.Counter("periodic/dropped").Value()
	}
	return int(n)
}

type apprSnap struct {
	n   uint64
	sum time.Duration
}

func (a apprSnap) sub(b apprSnap) (uint64, time.Duration) { return a.n - b.n, a.sum - b.sum }

// periodicAppraisals snapshots the modeled cpu-availability appraisal cost.
func (r *runner) periodicAppraisals() apprSnap {
	var out apprSnap
	for _, as := range r.f.tb.AttestServers {
		sn := as.Metrics().Summary("appraise/" + string(properties.CPUAvailability)).Snapshot()
		out.n += sn.Count
		out.sum += sn.Sum
	}
	return out
}

// quantile interpolates the q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + time.Duration(frac*float64(xs[lo+1]-xs[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
