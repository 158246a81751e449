package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/gf"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/transport/channet"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

// sink keeps microbenchmark results live so the compiler keeps the work.
var sink atomic.Int64

// The calibration loop multiplies with its own GF(2^8) tables rather than
// the program's gf package, so a change to the program never moves it.
var (
	calibLog [256]int
	calibExp [512]byte
	calibSrc = make([]byte, 4096)
	calibDst = make([]byte, 4096)
)

func init() {
	x := 1
	for i := range 255 {
		calibExp[i], calibExp[i+255] = byte(x), byte(x)
		calibLog[x] = i
		if x <<= 1; x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	fillValue(calibSrc, 0, 0, 0, 0)
}

// calibrate times a fixed loop (64 GF(2^8) multiply-accumulates over
// 4 KiB, best of 5) and returns it in ns. Timed next to each window, it
// tells a slower host from a slower program.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for range 5 {
		t0 := time.Now()
		for c := range 64 {
			logC := calibLog[c+2]
			for i, s := range calibSrc {
				if s != 0 {
					calibDst[i] ^= calibExp[logC+calibLog[s]]
				}
			}
		}
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds())
}

// perOp times fn over batches of n calls until budget is spent and
// returns the median ns per call and the mean heap allocations per call.
func perOp(budget time.Duration, fn func()) (ns, allocs float64) {
	n := 1
	for {
		t0 := time.Now()
		for range n {
			fn()
		}
		if time.Since(t0) >= budget/20 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var samples []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		for range n {
			fn()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// microBudget is the time each microbenchmark measures for.
const microBudget = 300 * time.Millisecond

// microMetrics runs the layer microbenchmarks: the GF kernel, the MBR
// code, the wire codec and one hop of each transport.
func microMetrics(m metrics) error {
	// GF: the 3-byte vectors the stripe-major MBR layout makes, and 4 KiB.
	src3, dst3 := []byte{1, 2, 3}, make([]byte, 3)
	ns, _ := perOp(microBudget, func() { gf.AddMulSlice(0x53, src3, dst3) })
	m.add("gf.addmul_3b_ns", ns, "ns")
	src4k, dst4k := make([]byte, 4096), make([]byte, 4096)
	fillValue(src4k, 1, 0, 0, 0)
	ns, _ = perOp(microBudget, func() { gf.AddMulSlice(0x53, src4k, dst4k) })
	m.add("gf.addmul_4k_gbps", 4096/ns, "GB/s")
	sink.Add(int64(dst3[0]) + int64(dst4k[0]))

	// MBR encode and decode of a 4 KiB value.
	code, err := mbr.New(benchParams().CodeParams())
	if err != nil {
		return err
	}
	value := make([]byte, 4096)
	fillValue(value, 1, 0, 1, 0)
	shards, err := code.Encode(value)
	if err != nil {
		return err
	}
	ns, _ = perOp(microBudget, func() {
		out, _ := code.Encode(value)
		sink.Add(int64(len(out)))
	})
	m.add("mbr.encode_4k_mbps", 4096/ns*1e3, "MB/s")
	k := code.Params().K
	have := make([]erasure.Shard, k)
	for i := range have {
		have[i] = erasure.Shard{Index: i, Data: shards[i]}
	}
	got, err := code.Decode(len(value), have)
	if err != nil || string(got) != string(value) {
		return fmt.Errorf("mbr decode microbenchmark: round trip failed (%v)", err)
	}
	ns, _ = perOp(microBudget, func() {
		out, _ := code.Decode(len(value), have)
		sink.Add(int64(len(out)))
	})
	m.add("mbr.decode_4k_mbps", 4096/ns*1e3, "MB/s")

	// Wire: encode plus alias decode of the messages on the hot path.
	elem := shards[benchParams().N1]
	helper, err := code.Helper(elem, benchParams().N1, 0)
	if err != nil {
		return err
	}
	t := tag.Tag{Z: 7, W: 3}
	msgs := []struct {
		name string
		msg  wire.Message
	}{
		{"put_data", wire.PutData{OpID: 9, Tag: t, Value: value}},
		{"query_data_resp", wire.QueryDataResp{OpID: 9, Class: wire.PayloadCoded, Tag: t, Data: shards[0], ValueLen: 4096}},
		{"write_code_elem_batch", wire.WriteCodeElemBatch{Elems: []wire.CodeElem{
			{Tag: t, Coded: elem, ValueLen: 4096}, {Tag: t.Next(3), Coded: elem, ValueLen: 4096},
		}}},
		{"send_helper_elem", wire.SendHelperElem{Reader: wire.ProcID{Role: wire.RoleReader, Index: 1}, OpID: 9, Tag: t, Helper: helper, ValueLen: 4096}},
	}
	var buf []byte
	var allocSum float64
	for _, c := range msgs {
		buf = wire.AppendEncode(buf[:0], c.msg)
		if dec, err := wire.DecodeAlias(buf); err != nil || dec.Kind() != c.msg.Kind() {
			return fmt.Errorf("wire %s: round trip failed (%v)", c.name, err)
		}
		ns, allocs := perOp(microBudget/2, func() {
			buf = wire.AppendEncode(buf[:0], c.msg)
			dec, _ := wire.DecodeAlias(buf)
			sink.Add(int64(dec.Kind()))
		})
		m.add("wire.roundtrip_ns."+c.name, ns, "ns")
		allocSum += allocs
	}
	m.add("wire.allocs_per_roundtrip", allocSum/float64(len(msgs)), "count")

	// Transport: one hop is half a ping-pong between two endpoints.
	hop, err := channetHop()
	if err != nil {
		return err
	}
	m.add("channet.hop_us", hop, "us")
	hop, err = tcpnetHop(value)
	if err != nil {
		return err
	}
	m.add("tcpnet.hop_us", hop, "us")
	return nil
}

var (
	pingID = wire.ProcID{Role: wire.RoleL1, Index: 0}
	pongID = wire.ProcID{Role: wire.RoleL1, Index: 1}
)

// pingPong measures round trips from ping to pong and back over the two
// nodes, for microBudget, and returns half the median round trip in µs.
// pong's handler echoes every message back; done receives each echo.
func pingPong(ping transport.Node, done <-chan struct{}, msg wire.Message) (float64, error) {
	var lost error
	rt, _ := perOp(microBudget, func() {
		if lost != nil {
			return
		}
		if err := ping.Send(pongID, msg); err != nil {
			lost = err
			return
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			lost = errors.New("no echo within 5s")
		}
	})
	return rt / 2 / 1e3, lost
}

func channetHop() (float64, error) {
	net := channet.New(channet.Options{})
	defer net.Close()
	done := make(chan struct{}, 1)
	var pong atomic.Pointer[transport.Node]
	ping, err := net.Register(pingID, func(wire.Envelope) { done <- struct{}{} })
	if err != nil {
		return 0, err
	}
	p, err := net.Register(pongID, func(env wire.Envelope) { _ = (*pong.Load()).Send(pingID, env.Msg) })
	if err != nil {
		return 0, err
	}
	pong.Store(&p)
	return pingPong(ping, done, wire.QueryTag{OpID: 1})
}

// tcpnetHop runs the ping-pong across two tcpnet networks on loopback
// with a 4 KiB PutData payload.
func tcpnetHop(value []byte) (float64, error) {
	var addrs [2]atomic.Value
	resolver := func(id wire.ProcID) (string, bool) {
		a, ok := addrs[id.Index].Load().(string)
		return a, ok
	}
	netA, err := tcpnet.NewNetwork("127.0.0.1:0", tcpnet.Options{Resolver: resolver})
	if err != nil {
		return 0, err
	}
	defer netA.Close()
	netB, err := tcpnet.NewNetwork("127.0.0.1:0", tcpnet.Options{Resolver: resolver})
	if err != nil {
		return 0, err
	}
	defer netB.Close()
	addrs[0].Store(netA.Addr())
	addrs[1].Store(netB.Addr())

	done := make(chan struct{}, 1)
	var pong atomic.Pointer[transport.Node]
	ping, err := netA.Register(pingID, func(wire.Envelope) { done <- struct{}{} })
	if err != nil {
		return 0, err
	}
	p, err := netB.Register(pongID, func(env wire.Envelope) { _ = (*pong.Load()).Send(pingID, env.Msg) })
	if err != nil {
		return 0, err
	}
	pong.Store(&p)
	msg := wire.PutData{OpID: 1, Value: value}
	// The first send dials; make sure the path is up before timing it.
	if _, err := pingPong(ping, done, msg); err != nil {
		return 0, fmt.Errorf("tcpnet hop: %w", err)
	}
	return pingPong(ping, done, msg)
}
