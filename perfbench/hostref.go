package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"time"
)

// The end-to-end times are scaled to a nominal host speed. The benchmark
// shares a small machine with other tenants, whose load changes how fast
// the same code runs — by up to 1.7× over minutes, in wall and CPU time
// alike. So every measured stretch of operations is interleaved with short
// bursts of a fixed reference computation that calls only the standard
// library, which no change to the program can make faster or slower. The
// bursts run in a child process (this binary with --ref-server), so the
// program's heap, collector and goroutines cannot slow them either. Each
// slice's wall times are multiplied by the reference's nominal wall time
// per unit over its measured one in that slice, and CPU times likewise by
// its CPU time.
const (
	// refNominalWall and refNominalCPU are one reference unit's wall and
	// process CPU time on an unloaded host (2 vCPUs of an Intel Xeon), so
	// scaled times stay near measured ones.
	refNominalWall = 225 * time.Microsecond
	refNominalCPU  = 225 * time.Microsecond
	// After every refEvery of operations a burst runs for refShare of the
	// operations' time since the previous burst.
	refEvery = 50 * time.Millisecond
	refShare = 0.2
)

// hostRef is the reference computation. Like the program, a unit both
// computes and hands work between goroutines: it does one ed25519
// verification, a SHA-256 of 16 KiB, a sort of 1024 integers and 1024 map
// lookups, then passes a 1 KiB buffer around a ring of three goroutines
// eight times, each hashing it. It allocates nothing, so it leaves the heap
// metrics alone.
type hostRef struct {
	pub       ed25519.PublicKey
	msg, sig  []byte
	buf       []byte
	src, ints []int
	table     map[int]int
	sink      int

	hop1, hop2, back chan []byte
	msgBuf           []byte
}

func newHostRef() *hostRef {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	h := &hostRef{
		pub:    priv.Public().(ed25519.PublicKey),
		msg:    make([]byte, 256),
		buf:    make([]byte, 16<<10),
		src:    rand.New(rand.NewSource(1)).Perm(1024),
		ints:   make([]int, 1024),
		table:  make(map[int]int, 1024),
		hop1:   make(chan []byte),
		hop2:   make(chan []byte),
		back:   make(chan []byte),
		msgBuf: make([]byte, 1024),
	}
	h.sig = ed25519.Sign(priv, h.msg)
	for i, v := range h.src {
		h.table[v] = i
	}
	// The relay goroutines block on their channels between bursts and end
	// with the process.
	relay := func(in, out chan []byte, at int) {
		for m := range in {
			s := sha256.Sum256(m)
			m[at] = s[0]
			out <- m
		}
	}
	go relay(h.hop1, h.hop2, 1)
	go relay(h.hop2, h.back, 2)
	return h
}

func (h *hostRef) unit() {
	if !ed25519.Verify(h.pub, h.msg, h.sig) {
		panic("perfbench: reference signature does not verify")
	}
	sum := sha256.Sum256(h.buf)
	copy(h.ints, h.src)
	slices.Sort(h.ints)
	n := int(sum[0])
	for _, v := range h.ints {
		n += h.table[v]
	}
	for i := 0; i < 8; i++ {
		h.hop1 <- h.msgBuf
		m := <-h.back
		s := sha256.Sum256(m)
		m[0] = s[0]
	}
	h.sink += n
}

// refSample is a run of reference units: how many, and the wall and
// process CPU time they took.
type refSample struct {
	wall, cpu time.Duration
	units     int
}

func (a refSample) add(b refSample) refSample {
	return refSample{a.wall + b.wall, a.cpu + b.cpu, a.units + b.units}
}

// burst runs reference units for at least d (and at least one unit).
func (h *hostRef) burst(d time.Duration) refSample {
	start, cpu0 := time.Now(), processCPU()
	units := 0
	for {
		h.unit()
		units++
		if el := time.Since(start); el >= d {
			return refSample{el, processCPU() - cpu0, units}
		}
	}
}

// hostSpeed is the host's speed relative to nominal, for wall and CPU
// time: below 1 when the host is slow. Scaled time = measured × speed.
type hostSpeed struct{ wall, cpu float64 }

var nominalSpeed = hostSpeed{1, 1}

func (s refSample) speed() hostSpeed {
	if s.units == 0 || s.wall <= 0 || s.cpu <= 0 {
		return nominalSpeed
	}
	u := float64(s.units)
	return hostSpeed{
		wall: float64(refNominalWall) * u / float64(s.wall),
		cpu:  float64(refNominalCPU) * u / float64(s.cpu),
	}
}

// refProc is the child process that runs reference bursts on request.
type refProc struct {
	cmd       *exec.Cmd
	in        io.WriteCloser
	out       io.ReadCloser
	req, resp []byte
	err       error // the first failed exchange
}

func startRefProc() (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("starting reference process: %w", err)
	}
	cmd := exec.Command(exe, "--ref-server")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("starting reference process: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("starting reference process: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting reference process: %w", err)
	}
	return &refProc{cmd: cmd, in: in, out: out, req: make([]byte, 8), resp: make([]byte, 24)}, nil
}

// burst has the child run reference units for at least d. After a failed
// exchange it returns an empty sample, and close reports the failure.
func (p *refProc) burst(d time.Duration) refSample {
	if p.err != nil {
		return refSample{}
	}
	binary.LittleEndian.PutUint64(p.req, uint64(d))
	if _, err := p.in.Write(p.req); err != nil {
		p.err = err
		return refSample{}
	}
	if _, err := io.ReadFull(p.out, p.resp); err != nil {
		p.err = err
		return refSample{}
	}
	return refSample{
		wall:  time.Duration(binary.LittleEndian.Uint64(p.resp[0:])),
		cpu:   time.Duration(binary.LittleEndian.Uint64(p.resp[8:])),
		units: int(binary.LittleEndian.Uint64(p.resp[16:])),
	}
}

// close ends the child and waits for it.
func (p *refProc) close() error {
	p.in.Close()
	werr := p.cmd.Wait()
	if p.err != nil {
		return fmt.Errorf("reference process: %w", p.err)
	}
	if werr != nil {
		return fmt.Errorf("reference process: %w", werr)
	}
	return nil
}

// serveRef is the child's loop: it answers each burst request on in until
// in closes.
func serveRef(in io.Reader, out io.Writer) int {
	h := newHostRef()
	req, resp := make([]byte, 8), make([]byte, 24)
	for {
		if _, err := io.ReadFull(in, req); err != nil {
			return 0
		}
		s := h.burst(time.Duration(binary.LittleEndian.Uint64(req)))
		binary.LittleEndian.PutUint64(resp[0:], uint64(s.wall))
		binary.LittleEndian.PutUint64(resp[8:], uint64(s.cpu))
		binary.LittleEndian.PutUint64(resp[16:], uint64(s.units))
		if _, err := out.Write(resp); err != nil {
			return 1
		}
	}
}
