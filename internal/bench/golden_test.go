package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/workload"
)

// goldenPath pins the simulator's observable behaviour: a digest of every
// rendered scheduler-driven experiment, and of a short seeded cloudsim run
// of one-time window attestations together with the number of kernel
// events it fired. Any change to event order, tie-breaking or random-draw
// order shows up here. The file records what the code produced before a
// simulator change; a mismatch is a behaviour change to explain, not a
// file to regenerate.
const goldenPath = "testdata/sim_golden.txt"

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// goldenExperiments renders the experiments exactly as monatt-bench does.
func goldenExperiments(t *testing.T) map[string]string {
	t.Helper()
	const seed = 1
	must := func(s string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	out := map[string]string{
		"fig4": Fig4(seed, 200).Render(),
		"fig5": must(func() (string, error) { r, err := Fig5(seed, 2*time.Second); return r.Render(), err }()),
		"fig6": must(func() (string, error) { r, err := Fig6(seed); return r.Render(), err }()),
		"fig7": must(func() (string, error) { r, err := Fig7(seed); return r.Render(), err }()),
		"rfa":  must(func() (string, error) { r, err := RFA(seed); return r.Render(), err }()),
	}
	bins, err := AblationBins(seed)
	if err != nil {
		t.Fatal(err)
	}
	out["ablation"] = AblationScheduler(seed).Render() + "\n" + bins.Render()
	return out
}

// goldenWindowRun launches four services on a two-server testbed and runs
// 40 one-time attestations alternating cpu-availability and covert-channel
// freedom, each measuring a one-second virtual window. It returns the
// digest of the (vid, property, healthy, reason) sequence and the kernel's
// fired-event count.
func goldenWindowRun(t *testing.T) (string, uint64) {
	t.Helper()
	tb, err := cloudsim.New(cloudsim.Options{Seed: 1, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cu, err := tb.NewCustomer("golden")
	if err != nil {
		t.Fatal(err)
	}
	var vids []string
	for i := 0; i < 4; i++ {
		res, err := cu.Launch(controller.LaunchRequest{
			ImageName: "fedora", Flavor: "small",
			Workload:  workload.ServiceNames[i%len(workload.ServiceNames)],
			Props:     properties.All,
			Allowlist: []string{"init", "sshd", "cron", "rsyslogd", "agetty"},
			MinShare:  0.02, Pin: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("launch %d refused: %s", i, res.Reason)
		}
		vids = append(vids, res.Vid)
	}
	var seq strings.Builder
	for i := 0; i < 40; i++ {
		p := properties.CPUAvailability
		if i%2 == 1 {
			p = properties.CovertChannelFreedom
		}
		vid := vids[(i/2)%len(vids)]
		v, err := cu.Attest(vid, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&seq, "%s|%s|%t|%s\n", vid, p, v.Healthy, v.Reason)
	}
	return digest(seq.String()), tb.Clock.Kernel().Fired()
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestSimulatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six experiments and a cloudsim run")
	}
	got := make(map[string]string)
	for name, s := range goldenExperiments(t) {
		got[name] = digest(s)
	}
	verdicts, fired := goldenWindowRun(t)
	got["cloudsim-window-verdicts"] = verdicts
	got["cloudsim-window-fired"] = fmt.Sprint(fired)

	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, test computes %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from %s (computed %s)", name, goldenPath, g)
		} else if g != w {
			t.Errorf("%s: got %s, golden %s", name, g, w)
		}
	}
}
