package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metadata describes the machine, the code and the workload of one run.
type metadata struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"nproc"`
	CPUModel   string     `json:"cpu_model"`
	GitRev     string     `json:"git_rev"`
	SourceHash string     `json:"source_sha256"`
	Fleet      fleetShape `json:"fleet"`
}

type fleetShape struct {
	Servers   int    `json:"servers"`
	PerServer int    `json:"vms_per_server"`
	Guests    string `json:"guests"`
	Loop      string `json:"loop"`
}

func runMetadata(cfg config) metadata {
	w := cfg.workload
	var guests []string
	seen := make(map[string]bool)
	for i := 0; i < w.servers*w.perServer; i++ {
		if s := w.service(i); !seen[s] {
			seen[s] = true
			guests = append(guests, s)
		}
	}
	return metadata{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GitRev: gitRev(), SourceHash: sourceHash("."),
		Fleet: fleetShape{Servers: w.servers, PerServer: w.perServer, Guests: strings.Join(guests, ","),
			Loop: "closed, 1 customer, 1 connection per hop"},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checkout's commit, or "none" outside a git work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under root (hidden
// directories skipped), identifying the code even where git is absent.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
