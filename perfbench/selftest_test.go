package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSelf does a short run of every workload, traced and untraced, each in
// its own process (a testbed cannot be torn down in-process). It checks
// that BENCHMARK.json names only workloads the benchmark has, that every
// metric it names is printed with its unit, that every run's verdicts are
// correct, and that the one-shot workloads' verdict digests repeat for a
// fixed seed.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	runOnce := func(t *testing.T, name, trace, seconds string) (digest string, res result) {
		t.Helper()
		cmd := exec.Command(bin, "--workload", name, "--seed", "7", "--seconds", seconds,
			"--trace", trace, "--out", dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s --trace %s: %v\n%s", name, trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", name, err)
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "digest ") {
				digest = l
			}
		}
		if digest == "" {
			t.Errorf("%s: no digest line", name)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s --trace %s: correct=%v attempted=%d\n%s", name, trace, res.Correct, res.Attempted, out)
		}
		return digest, res
	}
	check := func(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		for _, m := range want {
			v, ok := got[m.Name]
			if !ok {
				t.Errorf("metric %s not printed", m.Name)
				continue
			}
			if v.Unit != m.Unit {
				t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, traced := runOnce(t, w.name, "1", "0.5")
			check(t, traced.Metrics, spec.PerLayer)
			if !strings.HasPrefix(w.name, "oneshot-") {
				_, res := runOnce(t, w.name, "0", "0.5")
				check(t, res.Metrics, spec.EndToEnd)
				return
			}
			// Long enough to fill the digest's verdict prefix.
			digest, res := runOnce(t, w.name, "0", "4")
			check(t, res.Metrics, spec.EndToEnd)
			if strings.Contains(digest, "incomplete") {
				t.Fatalf("run too short for the digest: %s", digest)
			}
			if again, _ := runOnce(t, w.name, "0", "4"); again != digest {
				t.Errorf("verdict digest changed between runs of one seed:\n%s\n%s", digest, again)
			}
		})
	}
}
