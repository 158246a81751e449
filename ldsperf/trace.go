package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// instruments are the counters at the layer boundaries the program
// exposes: the storage code (gateway.Config.Code), the node hosts'
// handlers (nodehost.Options.WrapNet) and, in a pass of its own, the
// protocol traffic (gateway.Config.Accountant on sim shards, the node
// hosts' sends and receives on tcp shards). Billing traffic encodes every
// message once more to size its metadata, so it runs apart from the pass
// that times the code. The untraced pass passes no instruments, so its
// code path is the program's own.
type instruments struct {
	code  *countingCode
	nodes *nodeMeter
	acct  *cost.Accountant // nil except in the traffic pass
}

func newInstruments(traffic bool) (*instruments, error) {
	inner, err := mbr.New(benchParams().CodeParams())
	if err != nil {
		return nil, err
	}
	in := &instruments{code: &countingCode{Code: inner}, nodes: &nodeMeter{}}
	if traffic {
		in.acct = cost.NewAccountant()
		in.nodes.acct = in.acct
	}
	return in, nil
}

// callStat counts calls of one code method and the time spent in them.
type callStat struct{ calls, ns atomic.Int64 }

func (c *callStat) since(t0 time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

// Code methods the wrapper counts, indexing countingCode.stats.
const (
	mEncodeNodes = iota
	mHelper
	mRegenerate
	mDecode
	numMethods
)

var methodNames = [numMethods]string{"encode_nodes", "helper", "regenerate", "decode"}

// countingCode is the MBR code with its four protocol entry points
// counted and timed. Embedding *mbr.Code keeps every other method,
// including EncodeNode (required when an L2 server boots) and the
// interfaces the protocol looks up by assertion, resolving to the real
// code.
type countingCode struct {
	*mbr.Code
	stats [numMethods]callStat
}

var _ erasure.Regenerating = (*countingCode)(nil)

func (c *countingCode) EncodeNodes(value []byte, nodes []int) ([][]byte, error) {
	t0 := time.Now()
	out, err := c.Code.EncodeNodes(value, nodes)
	c.stats[mEncodeNodes].since(t0)
	return out, err
}

func (c *countingCode) Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Code.Helper(shard, helperIdx, failedIdx)
	c.stats[mHelper].since(t0)
	return out, err
}

func (c *countingCode) Regenerate(failedIdx int, helpers []erasure.Helper) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Code.Regenerate(failedIdx, helpers)
	c.stats[mRegenerate].since(t0)
	return out, err
}

func (c *countingCode) Decode(valueLen int, shards []erasure.Shard) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Code.Decode(valueLen, shards)
	c.stats[mDecode].since(t0)
	return out, err
}

// nodeMeter times the handlers of every endpoint a node host registers
// and, when acct is set, feeds the hosts' traffic to it: messages a node
// sends, plus messages it receives from the gateway's clients, so each
// message of the tcp groups is billed once.
type nodeMeter struct {
	acct             *cost.Accountant
	l1Ns, l2Ns, msgs atomic.Int64
}

func (m *nodeMeter) wrap(n transport.Network) transport.Network { return &meteredNet{Network: n, m: m} }

type meteredNet struct {
	transport.Network
	m *nodeMeter
}

func isNodeRole(r wire.Role) bool {
	return r == wire.RoleL1 || r == wire.RoleL2 || r == wire.RoleControl
}

func (n *meteredNet) Register(id wire.ProcID, h transport.Handler) (transport.Node, error) {
	m := n.m
	var busy *atomic.Int64 // nil for the control endpoint
	switch id.Role {
	case wire.RoleL1:
		busy = &m.l1Ns
	case wire.RoleL2:
		busy = &m.l2Ns
	}
	node, err := n.Network.Register(id, func(env wire.Envelope) {
		if m.acct != nil && !isNodeRole(env.From.Role) {
			m.acct.Observe(env)
		}
		m.msgs.Add(1)
		if busy == nil {
			h(env)
			return
		}
		t0 := time.Now()
		h(env)
		busy.Add(int64(time.Since(t0)))
	})
	if err != nil {
		return nil, err
	}
	if m.acct == nil {
		return node, nil
	}
	return &meteredNode{Node: node, acct: m.acct}, nil
}

type meteredNode struct {
	transport.Node
	acct *cost.Accountant
}

func (nd *meteredNode) Send(to wire.ProcID, msg wire.Message) error {
	nd.acct.Observe(wire.Envelope{From: nd.ID(), To: to, Msg: msg})
	return nd.Node.Send(to, msg)
}

// layerSnap is every instrument's reading at one instant; phases are
// the differences between two of them.
type layerSnap struct {
	cpu              time.Duration
	calls, ns        [numMethods]int64
	traffic          cost.Snapshot
	l1Ns, l2Ns, msgs int64
}

func (in *instruments) snap() layerSnap {
	s := layerSnap{cpu: processCPU()}
	if in.acct != nil {
		s.traffic = in.acct.Snapshot()
	}
	for i := range s.calls {
		s.calls[i] = in.code.stats[i].calls.Load()
		s.ns[i] = in.code.stats[i].ns.Load()
	}
	s.l1Ns, s.l2Ns, s.msgs = in.nodes.l1Ns.Load(), in.nodes.l2Ns.Load(), in.nodes.msgs.Load()
	return s
}

// sub returns the activity between prev and s.
func (s layerSnap) sub(prev layerSnap) layerSnap {
	out := layerSnap{cpu: s.cpu - prev.cpu, traffic: s.traffic.Sub(prev.traffic)}
	for i := range s.calls {
		out.calls[i] = s.calls[i] - prev.calls[i]
		out.ns[i] = s.ns[i] - prev.ns[i]
	}
	out.l1Ns, out.l2Ns, out.msgs = s.l1Ns-prev.l1Ns, s.l2Ns-prev.l2Ns, s.msgs-prev.msgs
	return out
}

func (s layerSnap) add(o layerSnap) layerSnap {
	for i := range s.calls {
		s.calls[i] += o.calls[i]
		s.ns[i] += o.ns[i]
	}
	return s
}

// Payload of the message kinds the paper bills to each operation: a
// write sends the value to L1 and coded elements to L2; a read receives
// values or coded elements from L1, which regenerates them from L2
// helper data.
func readPayload(t cost.Snapshot) int64 {
	return t.KindPayload(wire.KindQueryDataResp) + t.KindPayload(wire.KindSendHelperElem)
}

func writePayload(t cost.Snapshot) int64 {
	return t.KindPayload(wire.KindPutData) + t.KindPayload(wire.KindWriteCodeElem) + t.KindPayload(wire.KindWriteCodeElemBatch)
}

// span is one gateway call the benchmark made in a traced run. Calls into
// the code and the node handlers carry no request id, so they are
// attributed to operations by count over a phase, not by span.
type span struct {
	Phase   string `json:"phase"`
	Op      string `json:"op"`
	Client  uint32 `json:"client"`
	Key     int    `json:"key"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	OK      bool   `json:"ok"`
}

// writeSpans writes spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
