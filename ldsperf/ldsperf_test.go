package main

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndRatio(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := ratio(3, 4); !near(got, 0.75) {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := nsToMs([]int64{1_500_000}); !near(got[0], 1.5) {
		t.Errorf("nsToMs(1.5e6) = %v", got)
	}
}

// testSpec is a small sim workload the tests can set up in milliseconds.
func testSpec(size int, getShare float64) spec {
	return spec{name: "test", backend: backendSim, keys: 8, valueSize: size, getShare: getShare}
}

func TestStorageUnitsMatchLemmaV3(t *testing.T) {
	// Closed form: B = k*d - k(k-1)/2 = 5 bytes per stripe, alpha = d = 3
	// bytes per node per stripe, n2 = 5 nodes.
	for _, c := range []struct {
		size int
		want float64
	}{
		{4096, 5 * 3 * 820 / 4096.0}, // 3.0029...
		{64, 5 * 3 * 13 / 64.0},      // 3.0469...
	} {
		if got := lemmaStorage(benchParams(), c.size); !near(got, c.want) {
			t.Errorf("lemmaStorage(%d) = %v, want %v", c.size, got, c.want)
		}
		m := &measurement{spec: testSpec(c.size, 1)}
		s, _, err := m.setup(context.Background(), m.spec, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := s.storageUnits()
		s.close()
		if !near(got, c.want) {
			t.Errorf("%d B values: measured storage_units %v, Lemma V.3 gives %v", c.size, got, c.want)
		}
	}
}

func TestClosedGatewayLowersOKShare(t *testing.T) {
	ctx := context.Background()
	m := &measurement{spec: testSpec(64, 0.5)}
	s, r, err := m.setup(ctx, m.spec, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		time.Sleep(300 * time.Millisecond)
		s.gw.Close()
	}()
	w := r.measure(ctx, "window", 600*time.Millisecond)
	<-closed
	r.resolveReads(w.t)
	if w.t.attempted == 0 || w.t.failed == 0 || w.t.failed == w.t.attempted {
		t.Fatalf("attempted %d, failed %d: want some but not all ops to fail", w.t.attempted, w.t.failed)
	}
	m.w, m.readBack = w, &tally{}
	m.attempted, m.failed = w.t.attempted, w.t.failed
	out := metrics{}
	m.endToEnd(out)
	if ok := out["ok_share"].Value; !(ok > 0 && ok < 1) {
		t.Errorf("ok_share = %v, want strictly between 0 and 1", ok)
	}
	if m.correct() {
		t.Error("a run with failed ops reported correct")
	}
}

func TestSameSeedSameOps(t *testing.T) {
	sp := testSpec(64, 0.5)
	seq := func(seed uint64, c uint32) []op {
		st := newStream(sp, seed, c)
		out := make([]op, 1000)
		for i := range out {
			o, idx := st.draw()
			if idx != uint64(i) {
				t.Fatalf("op index %d at position %d", idx, i)
			}
			out[i] = o
		}
		return out
	}
	a, b := seq(42, 0), seq(42, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 op %d: %v then %v", i, a[i], b[i])
		}
	}
	differs := func(x, y []op) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, seq(43, 0)) || !differs(a, seq(42, 1)) {
		t.Error("another seed or client gave the same op sequence")
	}

	v1, v2 := make([]byte, 64), make([]byte, 64)
	fillValue(v1, 42, 1, 9, 3)
	fillValue(v2, 42, 1, 9, 3)
	if string(v1) != string(v2) {
		t.Error("the same write produced different value bytes")
	}
}

func TestReadChecks(t *testing.T) {
	const seed, size = 5, 64
	scratch := make([]byte, size)
	v := make([]byte, size)
	fillValue(v, seed, 1, 9, 3)
	if c, op, err := readID(v, scratch, seed, size, 3); err != nil || c != 1 || op != 9 {
		t.Fatalf("readID = (%d, %d, %v), want (1, 9, nil)", c, op, err)
	}
	if _, _, err := readID(v, scratch, seed, size, 4); err == nil {
		t.Error("a value read from the wrong key passed")
	}
	v[40] ^= 1
	if _, _, err := readID(v, scratch, seed, size, 3); err == nil {
		t.Error("a corrupted value passed")
	}

	l := newLedger(8, 2)
	t1, t2 := tag.Tag{Z: 1, W: 1}, tag.Tag{Z: 2, W: 2}
	l.put(preloadClient, 3, 3, t1)
	l.put(1, 9, 3, t2)
	if got := l.floor(3); got != t2 {
		t.Errorf("floor after two puts = %v, want %v", got, t2)
	}
	for _, c := range []struct {
		r  readRec
		ok bool
	}{
		{readRec{key: 3, client: preloadClient, op: 3, tag: t1}, true},
		{readRec{key: 3, client: 1, op: 9, tag: t2}, true},
		{readRec{key: 3, client: 1, op: 9, tag: t1}, false},             // wrong tag
		{readRec{key: 3, client: 1, op: 10, tag: t2}, false},            // never written
		{readRec{key: 4, client: preloadClient, op: 3, tag: t1}, false}, // wrong key
	} {
		if err := l.resolve(c.r); (err == nil) != c.ok {
			t.Errorf("resolve(%+v) = %v, want ok=%v", c.r, err, c.ok)
		}
	}
}
