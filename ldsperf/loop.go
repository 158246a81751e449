package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/transport"
)

// Load shape shared by every workload: a closed loop of clients clients,
// each sending its next operation as soon as the previous one returns,
// against shards shards of (n1, n2, f1, f2) = (4, 5, 1, 1) groups.
const (
	clients  = 2
	shards   = 2
	tcpNodes = 3
)

func benchParams() lds.Params {
	p, err := lds.NewParams(4, 5, 1, 1)
	if err != nil {
		panic(err) // a constant geometry; only a bug makes it invalid
	}
	return p
}

// stack is one running system under test: a gateway and, for the tcp
// backend, the node hosts serving its shards in this process.
type stack struct {
	spec  spec
	gw    *gateway.Gateway
	hosts []*nodehost.Host
}

func (s *stack) close() {
	s.gw.Close()
	s.closeHosts()
}

// newStack starts the gateway (and node hosts) for sp. inst may be nil;
// otherwise its code wrapper, accountant and node meter are wired in.
func newStack(sp spec, inst *instruments) (*stack, error) {
	cfg := gateway.Config{Shards: shards, Params: benchParams()}
	if inst != nil {
		cfg.Code = inst.code
		if sp.backend == backendSim {
			cfg.Accountant = inst.acct
		}
	}
	s := &stack{spec: sp}
	if sp.backend == backendTCP {
		var opts nodehost.Options
		if inst != nil {
			opts.WrapNet = func(n transport.Network) transport.Network { return inst.nodes.wrap(n) }
		}
		specs := make([]gateway.NodeSpec, tcpNodes)
		for i := range specs {
			h, err := nodehost.New("127.0.0.1:0", int32(i+1), opts)
			if err != nil {
				s.closeHosts()
				return nil, err
			}
			s.hosts = append(s.hosts, h)
			specs[i] = gateway.NodeSpec{ID: h.NodeID(), Addr: h.Addr()}
		}
		cfg.Topology = &gateway.Topology{}
		for range shards {
			cfg.Topology.Shards = append(cfg.Topology.Shards, gateway.ShardSpec{Backend: gateway.BackendTCP, Nodes: specs})
		}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		s.closeHosts()
		return nil, err
	}
	s.gw = gw
	return s, nil
}

func (s *stack) closeHosts() {
	for _, h := range s.hosts {
		h.Close()
	}
}

// quiesce waits until no write is still being offloaded to L2, so storage
// gauges read the steady state. Sim groups are idle when the simulated
// network is; tcp groups when a gauge sweep of the nodes shows every L1
// list empty.
func (s *stack) quiesce(ctx context.Context) error {
	if s.spec.backend == backendSim {
		return s.gw.WaitIdle(60 * time.Second)
	}
	giveUp := time.Now().Add(60 * time.Second)
	for {
		// Sweeps are debounced to one a second; wait one out so the
		// gauges read below are sampled after this call started.
		time.Sleep(1100 * time.Millisecond)
		if err := s.gw.SyncRemoteStats(ctx); err != nil {
			return err
		}
		idle := s.gw.TemporaryBytes() == 0
		for _, st := range s.gw.Stats() {
			idle = idle && st.OffloadQueueDepth == 0
		}
		if idle {
			return nil
		}
		if time.Now().After(giveUp) {
			return errors.New("tcp groups did not quiesce within 60s")
		}
	}
}

// client is one closed-loop caller with its own operation stream.
type client struct {
	id      uint32
	st      *stream
	scratch []byte // verification buffer, one value long
}

// tally is what one phase of closed-loop operations produced.
type tally struct {
	attempted, failed int64
	getNs, putNs      []int64
	reads             []readRec
	errs              []string // first few failures, for the report
	spans             []span
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// bytes is the heap the tally's records hold.
func (t *tally) bytes() int64 {
	return int64(cap(t.getNs)+cap(t.putNs))*8 +
		int64(cap(t.reads))*int64(unsafe.Sizeof(readRec{})) +
		int64(cap(t.spans))*int64(unsafe.Sizeof(span{}))
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.getNs = append(t.getNs, o.getNs...)
	t.putNs = append(t.putNs, o.putNs...)
	t.reads = append(t.reads, o.reads...)
	t.spans = append(t.spans, o.spans...)
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// runner drives operations against one stack and verifies every read.
type runner struct {
	s       *stack
	seed    uint64
	led     *ledger
	clients []*client
	done    atomic.Int64 // operations completed, for the window's sampler
	traced  bool
	epoch   time.Time // span timestamps are offsets from here
}

func newRunner(s *stack, seed uint64, traced bool) *runner {
	r := &runner{s: s, seed: seed, led: newLedger(s.spec.keys, clients), traced: traced, epoch: time.Now()}
	for c := range clients {
		r.clients = append(r.clients, &client{
			id:      uint32(c),
			st:      newStream(s.spec, seed, uint32(c)),
			scratch: make([]byte, s.spec.valueSize),
		})
	}
	return r
}

// get reads key, checks the value's bytes and that its tag is no older
// than the newest Put on key completed before the read started, and
// queues the tag for the put-log check.
func (r *runner) get(ctx context.Context, c *client, t *tally, phase string, key int) {
	t.attempted++
	floor := r.led.floor(key)
	t0 := time.Now()
	v, tg, err := r.s.gw.Get(ctx, keyName(key))
	d := time.Since(t0)
	r.done.Add(1)
	if r.traced {
		t.spans = append(t.spans, span{Phase: phase, Op: "get", Client: c.id, Key: key, StartNs: t0.Sub(r.epoch).Nanoseconds(), DurNs: d.Nanoseconds(), OK: err == nil})
	}
	if err != nil {
		t.fail(fmt.Errorf("get %d: %w", key, err))
		return
	}
	t.getNs = append(t.getNs, d.Nanoseconds())
	if tg.Less(floor) {
		t.fail(fmt.Errorf("key %d: read tag %v older than completed write %v", key, tg, floor))
		return
	}
	wc, wop, err := readID(v, c.scratch, r.seed, r.s.spec.valueSize, key)
	if err != nil {
		t.fail(err)
		return
	}
	t.reads = append(t.reads, readRec{key: int32(key), client: wc, op: wop, tag: tg})
}

// put writes the value of (writer, opIndex) to key and logs its tag. The
// value is freshly allocated: the simulated network hands it to the L1
// servers by reference.
func (r *runner) put(ctx context.Context, c *client, t *tally, phase string, writer uint32, opIndex uint64, key int) {
	t.attempted++
	v := make([]byte, r.s.spec.valueSize)
	fillValue(v, r.seed, writer, opIndex, key)
	t0 := time.Now()
	tg, err := r.s.gw.Put(ctx, keyName(key), v)
	d := time.Since(t0)
	r.done.Add(1)
	if r.traced {
		t.spans = append(t.spans, span{Phase: phase, Op: "put", Client: c.id, Key: key, StartNs: t0.Sub(r.epoch).Nanoseconds(), DurNs: d.Nanoseconds(), OK: err == nil})
	}
	if err != nil {
		t.fail(fmt.Errorf("put %d: %w", key, err))
		return
	}
	t.putNs = append(t.putNs, d.Nanoseconds())
	r.led.put(writer, opIndex, key, tg)
}

// each runs fn on every client concurrently and merges their tallies.
func (r *runner) each(fn func(c *client, t *tally)) *tally {
	tallies := make([]tally, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, &tallies[i])
		}()
	}
	wg.Wait()
	out := &tally{}
	for i := range tallies {
		out.merge(&tallies[i])
	}
	return out
}

// preload writes every key's preload value, the clients splitting the
// keyspace.
func (r *runner) preload(ctx context.Context) *tally {
	return r.each(func(c *client, t *tally) {
		for k := int(c.id); k < r.s.spec.keys; k += len(r.clients) {
			r.put(ctx, c, t, "preload", preloadClient, uint64(k), k)
		}
	})
}

// readBack reads every key once after quiescence; reads check against
// the newest completed write, so this verifies the final state.
func (r *runner) readBack(ctx context.Context) *tally {
	return r.each(func(c *client, t *tally) {
		for k := int(c.id); k < r.s.spec.keys; k += len(r.clients) {
			r.get(ctx, c, t, "readback", k)
		}
	})
}

// loop runs the closed loop until done returns true: each client draws
// its next operation from its stream as soon as the previous one returns.
func (r *runner) loop(ctx context.Context, phase string, done func() bool) *tally {
	return r.each(func(c *client, t *tally) {
		for !done() {
			o, i := c.st.draw()
			if o.get {
				r.get(ctx, c, t, phase, o.key)
			} else {
				r.put(ctx, c, t, phase, c.id, i, o.key)
			}
		}
	})
}

// deadline returns a done function for loop that ends it after d.
func deadline(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

// resolveReads checks queued reads against the put logs; call it once no
// Put is in flight.
func (r *runner) resolveReads(t *tally) {
	for _, rd := range t.reads {
		if err := r.led.resolve(rd); err != nil {
			t.fail(err)
		}
	}
	t.reads = nil
}

// window is one measured closed-loop phase.
type window struct {
	t           *tally
	dur         time.Duration
	ops         int64
	cpu         time.Duration // process user+sys
	mallocs     uint64
	gcCycles    uint32
	sliceRate   []float64 // completed ops/s per slice
	sliceCPU    []float64 // process CPU µs per op per slice
	calibBefore float64   // ns per calibration loop
	calibAfter  float64
}

// sliceLen is the sampling period inside a window; rate and CPU cost are
// reported as medians over slices, so a short stall on a shared host
// moves one slice rather than the whole figure.
const sliceLen = 500 * time.Millisecond

// measure runs the closed loop for d and samples it.
func (r *runner) measure(ctx context.Context, phase string, d time.Duration) *window {
	w := &window{calibBefore: calibrate()}
	var stop atomic.Bool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startCPU := processCPU()
	start := time.Now()
	startOps := r.done.Load()

	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		prevT, prevOps, prevCPU := start, startOps, startCPU
		for now := range tick.C {
			ops, cpu := r.done.Load(), processCPU()
			if n := ops - prevOps; n > 0 {
				w.sliceRate = append(w.sliceRate, float64(n)/now.Sub(prevT).Seconds())
				w.sliceCPU = append(w.sliceCPU, float64(cpu-prevCPU)/1e3/float64(n))
			}
			prevT, prevOps, prevCPU = now, ops, cpu
			if now.Sub(start) >= d {
				stop.Store(true)
				return
			}
		}
	}()
	w.t = r.loop(ctx, phase, stop.Load)
	<-sampled
	w.dur = time.Since(start)
	w.ops = r.done.Load() - startOps
	w.cpu = processCPU() - startCPU
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.gcCycles = after.NumGC - before.NumGC
	w.calibAfter = calibrate()
	return w
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// storageUnits is L1 plus L2 stored bytes per user byte, at quiescence.
func (s *stack) storageUnits() float64 {
	return float64(s.gw.TemporaryBytes()+s.gw.PermanentBytes()) / float64(s.spec.keys*s.spec.valueSize)
}

// lemmaStorage is Lemma V.3's permanent storage cost of the (4,5,1,1)
// MBR code for one value of size bytes: n2 nodes store alpha = d bytes
// per stripe of B = k*d - k(k-1)/2 bytes, and a value pads to whole
// stripes.
func lemmaStorage(p lds.Params, size int) float64 {
	b := p.K*p.D - p.K*(p.K-1)/2
	stripes := (size + b - 1) / b
	return float64(p.N2*p.D*stripes) / float64(size)
}
