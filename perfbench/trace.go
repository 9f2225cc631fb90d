package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmonatt/internal/rpc"
)

// Hop names, keyed by the connection's target.
const (
	hopController = "hop.controller"
	hopAttestsrv  = "hop.attestsrv"
	hopServer     = "hop.server"
)

var hops = []string{hopController, hopAttestsrv, hopServer}

// hopOf maps a dial address on the testbed's in-memory network to its hop.
func hopOf(addr string) string {
	switch {
	case addr == "cloud-controller":
		return hopController
	case strings.HasPrefix(addr, "attestation-server"):
		return hopAttestsrv
	case strings.HasPrefix(addr, "server:"):
		return hopServer
	}
	return "hop.other"
}

// span is one timed interval of the traced run. Trace is the operation
// index; Parent names the enclosing span, assigned when the run ends by
// containment: with one customer in a closed loop, a hop that runs inside
// another hop's span is its child.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the traced testbed's in-memory network. Its Intercept hook
// wraps the dialing end of every connection; while recording is on, one
// span runs from the first request write to the first response read, and
// every byte crossing the connection is counted against its hop.
type tracer struct {
	mem   *rpc.MemNetwork
	epoch time.Time
	on    atomic.Bool
	op    atomic.Int64

	mu    sync.Mutex
	spans []span
	dials int
	bytes map[string]int64
}

func newTracer() *tracer {
	t := &tracer{mem: rpc.NewMemNetwork(), bytes: make(map[string]int64)}
	t.epoch = time.Now()
	t.mem.Intercept = func(addr string, client, server net.Conn) (net.Conn, net.Conn) {
		if t.on.Load() {
			t.mu.Lock()
			t.dials++
			t.mu.Unlock()
		}
		return &tracedConn{Conn: client, t: t, hop: hopOf(addr)}, server
	}
	return t
}

// network is the testbed's transport: the default in-memory network when
// there is no tracer.
func (t *tracer) network() rpc.Network {
	if t == nil {
		return nil
	}
	return t.mem
}

// now is the wall-clock offset from the tracer's epoch, in ns.
func (t *tracer) now() int64 {
	return int64(time.Since(t.epoch))
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedConn is the dialing end of one traced connection. rpc.Client
// serializes its calls, so each connection carries one exchange at a time.
type tracedConn struct {
	net.Conn
	t   *tracer
	hop string

	mu    sync.Mutex
	open  bool
	start int64
	trace int
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.t.on.Load() {
		c.mu.Lock()
		if !c.open {
			c.open, c.start, c.trace = true, c.t.now(), int(c.t.op.Load())
		}
		c.mu.Unlock()
	}
	n, err := c.Conn.Write(p)
	if n > 0 && c.t.on.Load() {
		c.t.mu.Lock()
		c.t.bytes[c.hop] += int64(n)
		c.t.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		on := c.t.on.Load()
		end := c.t.now()
		c.mu.Lock()
		s := span{Trace: c.trace, Name: c.hop, Start: c.start, End: end}
		opened := c.open
		c.open = false
		c.mu.Unlock()
		if on {
			c.t.mu.Lock()
			c.t.bytes[c.hop] += int64(n)
			c.t.mu.Unlock()
			if opened {
				c.t.add(s)
			}
		}
	}
	return n, err
}

// opSpans returns the recorded spans grouped by trace, parents assigned.
func (t *tracer) opSpans() map[int][]span {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byOp := make(map[int][]span)
	for _, s := range all {
		byOp[s.Trace] = append(byOp[s.Trace], s)
	}
	for _, ss := range byOp {
		assignParents(ss)
	}
	return byOp
}

// rank orders span kinds from outermost to innermost.
var rank = map[string]int{"op": 0, "step": 1, hopController: 1, hopAttestsrv: 2, hopServer: 3, "hop.other": 3}

// assignParents names each span's parent: the innermost span of an outer
// kind that contains it.
func assignParents(ss []span) {
	for i := range ss {
		if ss[i].Name == "op" {
			continue
		}
		best := -1
		for j := range ss {
			if i == j || rank[ss[j].Name] >= rank[ss[i].Name] {
				continue
			}
			if ss[j].Start <= ss[i].Start && ss[i].End <= ss[j].End &&
				(best < 0 || rank[ss[j].Name] > rank[ss[best].Name]) {
				best = j
			}
		}
		if best >= 0 {
			ss[i].Parent = ss[best].Name
		} else {
			ss[i].Parent = "op"
		}
	}
}

// selfTimes splits the traced operations' wall time by entity: a span's
// self time is its duration minus the part its children cover. Returns
// per-entity totals (ns), per-hop span totals (ns) and per-hop call counts.
func selfTimes(byOp map[int][]span) (self map[string]int64, hopTotal map[string]int64, calls map[string]int) {
	self = make(map[string]int64)
	hopTotal = make(map[string]int64)
	calls = make(map[string]int)
	// A periodic-fleet step's self time is the simulator advancing virtual
	// time (with the xen and guest models and the periodic engine's
	// scheduling), reported on its own as "step".
	entity := map[string]string{
		"op": "customer", "step": "step",
		hopController: "controller", hopAttestsrv: "attestsrv", hopServer: "server", "hop.other": "other",
	}
	for _, ss := range byOp {
		for i, s := range ss {
			var kids []span
			for j, k := range ss {
				if j != i && k.Parent == s.Name && s.Start <= k.Start && k.End <= s.End {
					kids = append(kids, k)
				}
			}
			self[entity[s.Name]] += s.dur() - covered(kids)
			if s.Name != "op" && s.Name != "step" {
				hopTotal[s.Name] += s.dur()
				calls[s.Name]++
			}
		}
	}
	return self, hopTotal, calls
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	curS, curE := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// writeSpans writes every span, one JSON object a line.
func writeSpans(path string, byOp map[int][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	enc := json.NewEncoder(bw)
	for _, op := range ops {
		for _, s := range byOp[op] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
