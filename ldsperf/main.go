// Command ldsperf is the repository's end-to-end benchmark. It drives the
// gateway library (gateway.New/Ensure/Put/Get) with a closed loop of two
// clients on one of three workloads, checks every value it reads back, and
// prints one JSON line of metrics: the end-to-end metrics with tracing off
// (-trace 0), or, with -trace 1, the per-layer metrics of separate traced
// passes plus the layer microbenchmarks. See README.md for the workloads,
// the metrics and the layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/lds-storage/lds/internal/cost"
)

// started is when the process began, for the progress lines.
var started = time.Now()

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (sim-read-4k, sim-smallwrite-4kkeys, tcp-mixed-4k)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the operation mix, keys and value bytes")
	flag.IntVar(&cfg.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of traced passes instead of the end-to-end metrics")
	flag.StringVar(&cfg.spans, "spans", "spans", "directory the traced pass writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ldsperf: want -workload NAME -seed N -seconds S>=1 -trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldsperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// pass is one measurement pass over a workload.
type pass struct {
	name   string
	window time.Duration
	// The stack is set up at least minSetups times, and again while less
	// than setupBudget has gone into set-up (at most maxSetups times);
	// setup_s is the median. Only the last stack is measured further.
	minSetups   int
	setupBudget time.Duration
	inst        *instruments
}

const (
	maxSetups = 20
	warmup    = time.Second
	// trafficWindow is the traffic pass's window: it counts messages, which
	// repeat from op to op.
	trafficWindow = 2 * time.Second
)

func run(cfg config) (*result, error) {
	sp, err := lookupSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	window := time.Duration(cfg.seconds) * time.Second
	res := &result{Correct: true, Metrics: metrics{}}
	measure := func(p pass) (*measurement, error) {
		m, err := measureRun(ctx, sp, cfg.seed, p)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", p.name, err)
		}
		m.report(p.name)
		res.Attempted += m.attempted
		res.Failed += m.failed
		res.Correct = res.Correct && m.correct()
		return m, nil
	}

	if !cfg.trace {
		plain, err := measure(pass{name: "untraced", window: window, minSetups: 5, setupBudget: 4 * time.Second})
		if err != nil {
			return nil, err
		}
		plain.endToEnd(res.Metrics)
		return res, nil
	}

	// The traced run compares an untraced and a traced pass of half the
	// window each, then bills traffic in a short pass of its own.
	plain, err := measure(pass{name: "untraced", window: window / 2, minSetups: 1})
	if err != nil {
		return nil, err
	}
	inst, err := newInstruments(false)
	if err != nil {
		return nil, err
	}
	traced, err := measure(pass{name: "traced", window: window / 2, minSetups: 1, inst: inst})
	if err != nil {
		return nil, err
	}
	if inst, err = newInstruments(true); err != nil {
		return nil, err
	}
	traffic, err := measure(pass{name: "traffic", window: trafficWindow, minSetups: 1, inst: inst})
	if err != nil {
		return nil, err
	}
	traced.perLayer(plain, traffic, res.Metrics)
	if err := microMetrics(res.Metrics); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed)
	if err := writeSpans(cfg.spans, name, traced.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// measurement is what one pass measured.
type measurement struct {
	spec       spec
	setupS     []float64
	ensureNs   []int64 // per key, last set-up
	heapKB     float64 // heap growth per key over the last set-up
	gorPerKey  float64 // goroutine growth per key over the last set-up
	w          *window
	preload    *tally // the last set-up's preload
	readBack   *tally
	heapMB     float64 // after set-up
	heapGrowth float64 // bytes per op over the window
	gors       int
	storage    float64

	attempted, failed int64
	errs              []string

	// instrumented passes only
	preSnap, winSnap, rbSnap layerSnap
	spans                    []span
}

// measureRun runs one pass: set-up, a warm-up second, the window,
// quiescence, the read-back of every key and the storage check.
func measureRun(ctx context.Context, sp spec, seed uint64, p pass) (*measurement, error) {
	m := &measurement{spec: sp}
	var s *stack
	var r *runner
	var spent time.Duration
	for i := 0; i < p.minSetups || (spent < p.setupBudget && i < maxSetups); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		var err error
		if s, r, err = m.setup(ctx, sp, seed, p.inst); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		spent += time.Duration(m.setupS[i] * float64(time.Second))
	}
	defer s.close()
	snap := func() layerSnap {
		if p.inst == nil {
			return layerSnap{}
		}
		return p.inst.snap()
	}

	// heap is the live heap after a forced GC, less the benchmark's own
	// records of the phases given, which grow with the ops run.
	heap := func(ts ...*tally) float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		own := r.led.bytes()
		for _, t := range ts {
			own += t.bytes()
		}
		return float64(int64(ms.HeapAlloc) - own)
	}
	// The system's heap keeps growing with the writes it serves, so it is
	// read once set-up is done: read at the window's end it would grow
	// with throughput. The growth is reported per op.
	m.heapMB = heap() / (1 << 20)
	warm := r.loop(ctx, "warmup", deadline(warmup))
	start := heap(warm)
	before := snap()
	m.w = r.measure(ctx, "window", p.window)
	m.winSnap = snap().sub(before)
	m.gors = runtime.NumGoroutine()
	m.heapGrowth = ratio(heap(warm, m.w.t)-start, float64(m.w.ops))

	if err := s.quiesce(ctx); err != nil {
		return nil, err
	}
	before = snap()
	m.readBack = r.readBack(ctx)
	m.rbSnap = snap().sub(before)
	phases := []*tally{warm, m.w.t, m.readBack}
	for _, t := range phases {
		r.resolveReads(t)
	}
	if sp.backend == backendTCP {
		// Refresh the sampled gauges after the read-back (quiesce above
		// already waited out the previous sweep's debounce).
		if err := s.quiesce(ctx); err != nil {
			return nil, err
		}
	}
	m.storage = s.storageUnits()

	for _, t := range phases {
		m.attempted += t.attempted
		m.failed += t.failed
		m.errs = append(m.errs, t.errs...)
		m.spans = append(m.spans, t.spans...)
	}
	if want := lemmaStorage(benchParams(), sp.valueSize); math.Abs(m.storage-want) > 1e-9 {
		m.errs = append(m.errs, fmt.Sprintf("storage_units %.6f, Lemma V.3 gives %.6f", m.storage, want))
	}
	return m, nil
}

// setup starts a stack, creates every key's group and preloads it; on
// the sim backend it then waits until the preload's offload to L2 is
// done. Its duration is one set-up time sample.
func (m *measurement) setup(ctx context.Context, sp spec, seed uint64, inst *instruments) (*stack, *runner, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0, gors0 := ms.HeapAlloc, runtime.NumGoroutine()

	t0 := time.Now()
	s, err := newStack(sp, inst)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(s, seed, inst != nil)
	ensureNs := make([]int64, sp.keys)
	ensured := r.each(func(c *client, t *tally) {
		for k := int(c.id); k < sp.keys; k += len(r.clients) {
			e0 := time.Now()
			if err := s.gw.Ensure(ctx, keyName(k)); err != nil {
				t.fail(err)
				return
			}
			ensureNs[k] = time.Since(e0).Nanoseconds()
		}
	})
	var before layerSnap
	if inst != nil {
		before = inst.snap()
	}
	pre := r.preload(ctx)
	err = firstErr(ensured, pre)
	if err == nil && sp.backend == backendSim {
		err = s.quiesce(ctx)
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	m.setupS = append(m.setupS, time.Since(t0).Seconds())
	m.ensureNs, m.preload = ensureNs, pre

	if inst != nil {
		m.preSnap = inst.snap().sub(before)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m.heapKB = (float64(ms.HeapAlloc) - float64(heap0)) / 1024 / float64(sp.keys)
		m.gorPerKey = float64(runtime.NumGoroutine()-gors0) / float64(sp.keys)
	}
	return s, r, nil
}

func firstErr(ts ...*tally) error {
	for _, t := range ts {
		if t.failed > 0 {
			return fmt.Errorf("%d of %d operations failed; first: %s", t.failed, t.attempted, t.errs[0])
		}
	}
	return nil
}

func (m *measurement) correct() bool { return m.failed == 0 && len(m.errs) == 0 }

// phases returns, per op kind, the latencies, op count and instrument
// readings of the phase that measures it: the window when the workload
// runs that kind, else the read-back (gets) or the last preload (puts).
// Per-layer figures use them; end-to-end latency is the window's alone.
func (m *measurement) phases() (getNs []int64, getSnap layerSnap, putNs []int64, putSnap layerSnap) {
	getNs, getSnap = m.w.t.getNs, m.winSnap
	if len(getNs) == 0 {
		getNs, getSnap = m.readBack.getNs, m.rbSnap
	}
	putNs, putSnap = m.w.t.putNs, m.winSnap
	if len(putNs) == 0 {
		putNs, putSnap = m.preload.putNs, m.preSnap
	}
	return getNs, getSnap, putNs, putSnap
}

func (m *measurement) endToEnd(out metrics) {
	w := m.w
	lat := nsToMs(append(slices.Clone(w.t.getNs), w.t.putNs...))
	out.add("ops_per_s", median(w.sliceRate), "1/s")
	out.add("op_p90_ms", percentile(lat, 90), "ms")
	out.add("cpu_us_per_op", median(w.sliceCPU), "us")
	out.add("allocs_per_op", ratio(float64(w.mallocs), float64(w.ops)), "count")
	out.add("heap_mb", m.heapMB, "MB")
	out.add("goroutines", float64(m.gors), "count")
	out.add("storage_units", m.storage, "units")
	out.add("ok_share", ratio(float64(m.attempted-m.failed), float64(m.attempted)), "share")
	out.add("setup_s", median(m.setupS), "s")
}

// perLayer reports the traced pass m, against the untraced pass plain
// and the traffic pass traffic.
func (m *measurement) perLayer(plain, traffic *measurement, out metrics) {
	w, ws := m.w, m.winSnap
	ops := float64(w.ops)
	getNs, getSnap, putNs, _ := m.phases()
	gets := float64(len(getNs))
	p := benchParams()
	size := float64(m.spec.valueSize)

	// Code: calls per op of the window, mean time per call over every
	// measured phase, and coding's share of the window's process CPU.
	all := ws.add(m.preSnap).add(m.rbSnap)
	var codingNs int64
	for i, name := range methodNames {
		out.add("mbr."+name+"_calls_per_op", ratio(float64(ws.calls[i]), ops), "count")
		out.add("mbr."+name+"_us", ratio(float64(all.ns[i]), float64(all.calls[i]))/1e3, "us")
		codingNs += ws.ns[i]
	}
	out.add("mbr.busy_share", ratio(float64(codingNs), float64(ws.cpu)), "share")
	out.add("mbr.regen_useful_ratio", ratio(float64(p.K)*gets, float64(getSnap.calls[mRegenerate])), "ratio")
	out.add("mbr.helper_useful_ratio", ratio(float64(p.K*p.D)*gets, float64(getSnap.calls[mHelper])), "ratio")

	// Protocol traffic, per op of the traffic pass's window and per user
	// byte of the phase measuring each op kind.
	tw := traffic.winSnap.traffic
	tops := float64(traffic.w.ops)
	out.add("lds.client_l1_msgs_per_op", ratio(float64(tw.Class(cost.ClientL1).Messages), tops), "count")
	out.add("lds.l1_l1_msgs_per_op", ratio(float64(tw.Class(cost.L1L1).Messages), tops), "count")
	out.add("lds.l1_l2_msgs_per_op", ratio(float64(tw.Class(cost.L1L2).Messages), tops), "count")
	tgets, tgetSnap, tputs, tputSnap := traffic.phases()
	out.add("lds.read_cost_units", ratio(float64(readPayload(tgetSnap.traffic)), float64(len(tgets))*size), "units")
	out.add("lds.write_cost_units", ratio(float64(writePayload(tputSnap.traffic)), float64(len(tputs))*size), "units")

	// Node hosts (tcp backend only; zero where no node host runs).
	out.add("nodehost.l1_busy_us_per_op", ratio(float64(ws.l1Ns)/1e3, ops), "us")
	out.add("nodehost.l2_busy_us_per_op", ratio(float64(ws.l2Ns)/1e3, ops), "us")
	out.add("nodehost.msgs_per_op", ratio(float64(ws.msgs), ops), "count")

	// Gateway library calls.
	var ensure float64
	for _, ns := range m.ensureNs {
		ensure += float64(ns)
	}
	out.add("gateway.ensure_ms_per_key", ensure/1e6/float64(len(m.ensureNs)), "ms")
	out.add("gateway.heap_kb_per_key", m.heapKB, "KB")
	out.add("gateway.goroutines_per_key", m.gorPerKey, "count")
	for _, k := range []struct {
		name string
		ns   []int64
	}{{"get", getNs}, {"put", putNs}} {
		ms := nsToMs(k.ns)
		out.add("gateway."+k.name+"_mean_ms", mean(ms), "ms")
		out.add("gateway."+k.name+"_p50_ms", percentile(ms, 50), "ms")
		out.add("gateway."+k.name+"_p99_ms", percentile(ms, 99), "ms")
	}

	// Diagnostics: host speed, GC pressure and what tracing costs.
	out.add("host.calib_ns", median([]float64{plain.w.calibBefore, plain.w.calibAfter, w.calibBefore, w.calibAfter}), "ns")
	out.add("runtime.heap_growth_b_per_op", plain.heapGrowth, "B")
	out.add("runtime.gc_cycles_per_kop", ratio(float64(plain.w.gcCycles)*1e3, float64(plain.w.ops)), "count")
	out.add("tracing.overhead", ratio(median(w.sliceCPU), median(plain.w.sliceCPU)), "ratio")
	out.add("tracing.allocs_ratio", ratio(float64(w.mallocs)/ops, float64(plain.w.mallocs)/float64(plain.w.ops)), "ratio")
}

// report prints a human-readable summary of a pass to stdout, ahead of
// the JSON result line: the window's noise forensics (host calibration
// before and after, GC cycles, the spread of its slices) and any
// verification failures.
func (m *measurement) report(pass string) {
	w := m.w
	q := func(xs []float64) string {
		return fmt.Sprintf("[%.0f %.0f %.0f %.0f %.0f]", percentile(xs, 0), percentile(xs, 25), percentile(xs, 50), percentile(xs, 75), percentile(xs, 100))
	}
	fmt.Printf("%s %s (at %.1fs): setups=%d setup_s=%.3f window=%.2fs ops=%d calib_ns=%.0f->%.0f gc_cycles=%d attempted=%d failed=%d storage_units=%.4f\n",
		m.spec.name, pass, time.Since(started).Seconds(), len(m.setupS), median(m.setupS), w.dur.Seconds(), w.ops,
		w.calibBefore, w.calibAfter, w.gcCycles, m.attempted, m.failed, m.storage)
	fmt.Printf("%s %s: slice min/quartiles/max ops/s=%s cpu_us/op=%s\n", m.spec.name, pass, q(w.sliceRate), q(w.sliceCPU))
	for _, e := range m.errs {
		fmt.Printf("%s %s: FAIL %s\n", m.spec.name, pass, e)
	}
}
