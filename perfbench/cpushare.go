package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the layers a traced run's CPU samples are attributed to.
var cpuLayers = []string{
	"crypto", "sim", "xen", "guest_monitor", "secchan", "codec", "rpc",
	"controller", "attestsrv", "server", "ledger", "obs_metrics",
	"gc_malloc", "sched", "other",
}

// pkgLayers maps package paths (longest prefix wins) to layers. Packages
// not listed are generic helpers (fmt, sort, maps, syscalls, …): a sample
// inside one is charged to the nearest listed caller.
var pkgLayers = map[string]string{
	"crypto":                          "crypto",
	"crypto/aes":                      "secchan",
	"crypto/cipher":                   "secchan",
	"crypto/internal/fips140/aes":     "secchan",
	"crypto/subtle":                   "secchan",
	"crypto/internal/fips140/subtle":  "secchan",
	"cloudmonatt/internal/cryptoutil": "crypto",
	"cloudmonatt/internal/secchan":    "secchan",
	"cloudmonatt/internal/sim":        "sim",
	"cloudmonatt/internal/vclock":     "sim",
	"cloudmonatt/internal/latency":    "sim",
	"container/heap":                  "sim",
	"cloudmonatt/internal/xen":        "xen",
	"cloudmonatt/internal/guest":      "guest_monitor",
	"cloudmonatt/internal/monitor":    "guest_monitor",
	"cloudmonatt/internal/workload":   "guest_monitor",
	"cloudmonatt/internal/binenc":     "codec",
	"cloudmonatt/internal/wire":       "codec",
	"cloudmonatt/internal/properties": "codec",
	"encoding":                        "codec",
	"reflect":                         "codec",
	"cloudmonatt/internal/rpc":        "rpc",
	"net":                             "rpc",
	"io":                              "rpc",
	"bufio":                           "rpc",
	"cloudmonatt/internal/controller": "controller",
	"cloudmonatt/internal/reconcile":  "controller",
	"cloudmonatt/internal/image":      "controller",
	"cloudmonatt/internal/shard":      "controller",
	"cloudmonatt/internal/attestsrv":  "attestsrv",
	"cloudmonatt/internal/interpret":  "attestsrv",
	"cloudmonatt/internal/pca":        "attestsrv",
	"cloudmonatt/internal/server":     "server",
	"cloudmonatt/internal/trust":      "server",
	"cloudmonatt/internal/tpm":        "server",
	"cloudmonatt/internal/vtpm":       "server",
	"cloudmonatt/internal/ledger":     "ledger",
	"cloudmonatt/internal/obs":        "obs_metrics",
	"cloudmonatt/internal/metrics":    "obs_metrics",
	"cloudmonatt/internal/cloudsim":   "other",
	"main":                            "other",
	"runtime/pprof":                   "other",
	"sync":                            "sched",
	"internal/sync":                   "sched",
}

// runtimeGC lists runtime function-name prefixes that are allocation,
// garbage collection or write barriers; every other runtime frame that is
// not a generic helper (runtimeHelpers) is scheduling, channels, locks,
// timers or stack management and charged to sched.
var runtimeGC = []string{
	"malloc", "newobject", "newarray", "makeslice", "makemap", "growslice", "makechan",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*pageAlloc)", "(*gcWork)",
	"(*gcControllerState)", "(*sweepLocked)", "(*spanSet)", "(*gcBits)", "(*pallocBits)",
	"gc", "scan", "greyobject", "findObject", "markBits", "markroot", "heapBits", "heapSetType",
	"wbBuf", "bulkBarrier", "typePointers", "sweep", "bgsweep", "bgscavenge", "scavenge",
	"memclrNoHeapPointers", "nextFreeFast", "deductAssistCredit", "sysAlloc", "sysUsed",
	"publicationBarrier", "(*mspan).typePointersOf", "tracebackPCs", "shade",
}

// runtimeHelpers are runtime functions that do a caller's work (copying,
// hashing, comparing, map and string operations); their samples are
// charged to the nearest listed caller.
var runtimeHelpers = []string{
	"memmove", "memequal", "memhash", "strhash", "aeshash", "cmpstring", "concatstring",
	"slicebytetostring", "stringtoslicebyte", "intstring", "mapaccess", "mapassign",
	"mapdelete", "mapiter", "typedmemmove", "typedslicecopy", "efaceeq", "ifaceeq",
	"convT", "assertE2I", "typeAssert", "getitab", "duffcopy", "duffzero", "memclr",
	"encoderune", "decoderune", "rawstring", "rawbyteslice", "panicIndex", "nilinterhash",
	"interhash", "f64hash", "c64hash", "int64div", "fastrand", "rand", "cheaprand",
}

// layerOf classifies one frame. decisive is false for generic helpers,
// whose samples belong to their caller.
func layerOf(frame string) (layer string, decisive bool) {
	pkg, fn := splitFrame(frame)
	if pkg == "runtime" {
		for _, p := range runtimeHelpers {
			if strings.HasPrefix(fn, p) {
				return "", false
			}
		}
		for _, p := range runtimeGC {
			if strings.HasPrefix(fn, p) {
				return "gc_malloc", true
			}
		}
		return "sched", true
	}
	best := ""
	for prefix := range pkgLayers {
		if (pkg == prefix || strings.HasPrefix(pkg, prefix+"/")) && len(prefix) > len(best) {
			best = prefix
		}
	}
	if best == "" {
		return "", false
	}
	return pkgLayers[best], true
}

// splitFrame splits "a/b/c.(*T).M" into ("a/b/c", "(*T).M").
func splitFrame(frame string) (pkg, fn string) {
	slash := strings.LastIndex(frame, "/")
	dot := strings.Index(frame[slash+1:], ".")
	if dot < 0 {
		return frame, ""
	}
	return frame[:slash+1+dot], frame[slash+1+dot+1:]
}

// attributeCPU runs `go tool pprof -traces` on a CPU profile and charges
// each sample to the layer of its innermost decisive frame. It returns
// each layer's share of the sampled CPU time.
func attributeCPU(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	totals := make(map[string]time.Duration)
	var sum time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if value > 0 && len(frames) > 0 {
			layer := ""
			for _, f := range frames {
				if l, ok := layerOf(f); ok {
					layer = l
					break
				}
			}
			if layer == "" {
				layer = "other"
			}
			totals[layer] += value
			sum += value
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue
		}
		if len(frames) == 0 && value == 0 && len(fields) >= 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value = d
				frames = append(frames, fields[1])
				continue
			}
		}
		if value > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if sum > 0 {
			shares[l] = float64(totals[l]) / float64(sum)
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}
