package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"unsafe"

	"github.com/lds-storage/lds/internal/tag"
)

// Backends a workload can run on.
const (
	backendSim = "sim"
	backendTCP = "tcp"
)

// spec is one workload: what runs, on what, and why it was chosen (the why
// lives in README.md next to the workload table).
type spec struct {
	name      string
	backend   string
	keys      int
	valueSize int
	// getShare is the probability that an operation of the measured
	// window is a Get; the rest are Puts.
	getShare float64
}

var workloads = []spec{
	{name: "sim-read-4k", backend: backendSim, keys: 256, valueSize: 4096, getShare: 1},
	{name: "sim-smallwrite-4kkeys", backend: backendSim, keys: 4096, valueSize: 64, getShare: 0},
	{name: "tcp-mixed-4k", backend: backendTCP, keys: 256, valueSize: 4096, getShare: 0.5},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// op is one generated client operation.
type op struct {
	get bool
	key int
}

// stream is one client's deterministic operation sequence: the seed and
// the client index fix every operation kind and key, and (via the value
// identity) every value byte written.
type stream struct {
	rng    *rand.Rand
	client uint32
	next   uint64 // index of the next operation
	spec   spec
}

func newStream(s spec, seed uint64, client uint32) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), client: client, spec: s}
}

// draw returns the next operation and its index in the client's sequence.
func (st *stream) draw() (op, uint64) {
	o := op{get: st.rng.Float64() < st.spec.getShare, key: st.rng.IntN(st.spec.keys)}
	i := st.next
	st.next++
	return o, i
}

// preloadClient is the writer identity of the values the set-up phase
// stores: value (preloadClient, key) is key's preloaded value.
const preloadClient = 1<<32 - 1

// Every value starts with a header naming the writer identity that
// produced it and the key it was written to; the remaining bytes are a
// pseudo-random function of (seed, client, op), so a reader can check
// every byte it gets back without the benchmark holding the values.
const headerLen = 16

// fillValue writes the value of operation (client, opIndex) on key into
// dst, which must be at least headerLen bytes.
func fillValue(dst []byte, seed uint64, client uint32, opIndex uint64, key int) {
	binary.LittleEndian.PutUint32(dst[0:], client)
	binary.LittleEndian.PutUint64(dst[4:], opIndex)
	binary.LittleEndian.PutUint32(dst[12:], uint32(key))
	x := seed ^ uint64(client)<<40 ^ opIndex*0x9e3779b97f4a7c15
	body := dst[headerLen:]
	for len(body) >= 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(body, x)
		body = body[8:]
	}
	x = splitmix(x)
	for i := range body {
		body[i] = byte(x >> (8 * i))
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// readID parses the writer identity out of a value read from key and
// checks every byte of it against what that writer wrote. scratch is a
// caller-owned buffer of the value size.
func readID(v, scratch []byte, seed uint64, size, key int) (client uint32, opIndex uint64, err error) {
	if len(v) != size {
		return 0, 0, fmt.Errorf("key %d: value of %d bytes, want %d", key, len(v), size)
	}
	client = binary.LittleEndian.Uint32(v[0:])
	opIndex = binary.LittleEndian.Uint64(v[4:])
	if k := int(binary.LittleEndian.Uint32(v[12:])); k != key {
		return 0, 0, fmt.Errorf("key %d: read a value written to key %d", key, k)
	}
	fillValue(scratch, seed, client, opIndex, key)
	if string(scratch) != string(v) {
		return 0, 0, fmt.Errorf("key %d: value bytes differ from write (%d,%d)", key, client, opIndex)
	}
	return client, opIndex, nil
}

// putRec is one completed Put in a client's log.
type putRec struct {
	op  uint64
	key int32
	tag tag.Tag
}

// readRec is one Get to resolve against the put log once every Put has
// returned: its tag must be the one the identified write was given.
type readRec struct {
	key    int32
	client uint32
	op     uint64
	tag    tag.Tag
}

// ledger is what the benchmark remembers to verify reads: the tag of each
// preloaded value, each client's put log, and per key the highest tag any
// completed Put returned (a Get that starts later must not return less).
type ledger struct {
	preload   []tag.Tag
	puts      [][]putRec // per client, in op order
	mu        []sync.Mutex
	completed []tag.Tag // per key
}

func newLedger(keys, clients int) *ledger {
	return &ledger{
		preload:   make([]tag.Tag, keys),
		puts:      make([][]putRec, clients),
		mu:        make([]sync.Mutex, keys),
		completed: make([]tag.Tag, keys),
	}
}

// bytes is the heap the put logs hold.
func (l *ledger) bytes() int64 {
	var n int64
	for _, log := range l.puts {
		n += int64(cap(log)) * int64(unsafe.Sizeof(putRec{}))
	}
	return n
}

// floor returns the highest tag a Put on key has completed with so far.
func (l *ledger) floor(key int) tag.Tag {
	l.mu[key].Lock()
	defer l.mu[key].Unlock()
	return l.completed[key]
}

func (l *ledger) raise(key int, t tag.Tag) {
	l.mu[key].Lock()
	l.completed[key] = tag.Max(l.completed[key], t)
	l.mu[key].Unlock()
}

// put records a completed Put of client's op on key. Only client's own
// goroutine appends to its log.
func (l *ledger) put(client uint32, opIndex uint64, key int, t tag.Tag) {
	if client == preloadClient {
		l.preload[key] = t
	} else {
		l.puts[client] = append(l.puts[client], putRec{op: opIndex, key: int32(key), tag: t})
	}
	l.raise(key, t)
}

// resolve checks a read against the logs; call it only after every Put
// that could have produced the value has returned.
func (l *ledger) resolve(r readRec) error {
	if r.client == preloadClient {
		if r.op != uint64(r.key) || l.preload[r.key] != r.tag {
			return fmt.Errorf("key %d: read preload value %d under tag %v, preloaded under %v", r.key, r.op, r.tag, l.preload[r.key])
		}
		return nil
	}
	if int(r.client) >= len(l.puts) {
		return fmt.Errorf("key %d: read a value from unknown client %d", r.key, r.client)
	}
	log := l.puts[r.client]
	i, ok := slices.BinarySearchFunc(log, r.op, func(p putRec, op uint64) int { return cmp.Compare(p.op, op) })
	if !ok {
		return fmt.Errorf("key %d: read write (%d,%d), which never completed", r.key, r.client, r.op)
	}
	if p := log[i]; p.key != r.key || p.tag != r.tag {
		return fmt.Errorf("key %d: read write (%d,%d) under tag %v, written to key %d under %v", r.key, r.client, r.op, r.tag, p.key, p.tag)
	}
	return nil
}
