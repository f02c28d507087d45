package trace

import (
	"fmt"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/model"
)

// This file holds the trace codec's decoder: one pass over the bytes,
// written by hand for the codec's grammar (latency, nodes[{send,recv,name}],
// edges[[p,c]], timing{rt,dt}) on a jsonscan.Scanner. It accepts exactly
// what json.Unmarshal into a jsonSchedule accepts and yields the same
// latency, nodes and edges; decode_test.go keeps that reflection decode as
// its oracle. Besides jsonscan's rules for keys, integers, strings and
// skipped members, it mirrors how encoding/json fills the schema's types:
//
//   - the last duplicate key wins;
//   - null leaves a node or an edge as it was, and empties "nodes" or
//     "edges";
//   - a repeated "nodes" or "edges" array decodes into the elements the
//     earlier one left, as encoding/json decodes into a slice's backing
//     array, and "[]" or null discards them;
//   - an edge holds its first two elements, zero-filled, and skips the
//     rest;
//   - the document is one object, or null.

// decoder is the state of one decode. nodes and edges hold every element
// written since the last "[]" or null, and nNodes and nEdges the current
// lengths: a later, longer array finds the earlier one's elements there.
type decoder struct {
	s       jsonscan.Scanner
	latency int64
	nodes   []model.Node
	nNodes  int
	node    *model.Node // the node whose object is being read
	edges   [][2]int
	nEdges  int
}

// maxPooledNodes bounds the scratch a pooled decoder keeps, so one large
// request does not pin its arrays for the life of the process.
const maxPooledNodes = 1 << 14

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decodeSchedule decodes data into a pooled decoder, which the caller
// returns with release once done with its nodes and edges.
func decodeSchedule(data []byte) (*decoder, error) {
	d := decoders.Get().(*decoder)
	d.s.Reset(data)
	if err := d.document(); err != nil {
		d.release()
		return nil, fmt.Errorf("trace: %w", err)
	}
	return d, nil
}

func (d *decoder) release() {
	clear(d.nodes) // drop the names
	if cap(d.nodes) > maxPooledNodes || cap(d.edges) > maxPooledNodes {
		return
	}
	*d = decoder{nodes: d.nodes[:0], edges: d.edges[:0]}
	decoders.Put(d)
}

// set returns the decoded multicast set, its nodes copied out of the
// decoder's scratch.
func (d *decoder) set() *model.MulticastSet {
	set := &model.MulticastSet{Latency: d.latency}
	if d.nNodes > 0 {
		set.Nodes = make([]model.Node, d.nNodes)
		copy(set.Nodes, d.nodes)
	}
	return set
}

// document decodes one top-level value: an object, or null.
func (d *decoder) document() error {
	s := &d.s
	var err error
	switch s.Peek() {
	case '{':
		err = s.Object(1, d.scheduleMember)
	case 'n':
		err = s.Literal("null")
	case '[', '"', 't', 'f', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return s.TypeError("an object")
	default:
		return s.SyntaxError()
	}
	if err != nil {
		return err
	}
	return s.End()
}

func (d *decoder) scheduleMember(k jsonscan.Key, depth int) error {
	switch {
	case k.Is("latency"):
		return d.s.Int64(&d.latency)
	case k.Is("nodes"):
		return d.nodeList(depth)
	case k.Is("edges"):
		return d.edgeList(depth)
	case k.Is("timing"):
		return d.timing(depth)
	}
	return d.s.Skip(depth)
}

func (d *decoder) nodeMember(k jsonscan.Key, depth int) error {
	switch {
	case k.Is("send"):
		return d.s.Int64(&d.node.Send)
	case k.Is("recv"):
		return d.s.Int64(&d.node.Recv)
	case k.Is("name"):
		return d.s.String(&d.node.Name)
	}
	return d.s.Skip(depth)
}

// timing checks a timing object's members and drops them: the timing is
// derived from the schedule.
func (d *decoder) timing(depth int) error {
	s := &d.s
	switch s.Peek() {
	case '{':
		return s.Object(depth+1, func(k jsonscan.Key, depth int) error {
			var v int64
			if k.Is("rt") || k.Is("dt") {
				return s.Int64(&v)
			}
			return s.Skip(depth)
		})
	case 'n':
		return s.Literal("null")
	}
	return s.TypeError("an object")
}

func (d *decoder) nodeList(depth int) error {
	s := &d.s
	var n int
	switch s.Peek() {
	case '[':
		var err error
		n, err = s.Array(func(i int) error {
			if i == len(d.nodes) {
				d.nodes = append(d.nodes, model.Node{})
			}
			d.node = &d.nodes[i]
			switch s.Peek() {
			case '{':
				return s.Object(depth+2, d.nodeMember)
			case 'n':
				return s.Literal("null")
			}
			return s.TypeError("a node object")
		})
		if err != nil {
			return err
		}
	case 'n':
		if err := s.Literal("null"); err != nil {
			return err
		}
	default:
		return s.TypeError("an array of nodes")
	}
	if n == 0 {
		clear(d.nodes)
		d.nodes = d.nodes[:0]
	}
	d.nNodes = n
	return nil
}

func (d *decoder) edgeList(depth int) error {
	s := &d.s
	var n int
	switch s.Peek() {
	case '[':
		var err error
		n, err = s.Array(func(i int) error {
			if i == len(d.edges) {
				d.edges = append(d.edges, [2]int{})
			}
			switch s.Peek() {
			case '[':
				return d.edge(&d.edges[i], depth+2)
			case 'n':
				return s.Literal("null")
			}
			return s.TypeError("an edge array")
		})
		if err != nil {
			return err
		}
	case 'n':
		if err := s.Literal("null"); err != nil {
			return err
		}
	default:
		return s.TypeError("an array of edges")
	}
	if n == 0 {
		d.edges = d.edges[:0]
	}
	d.nEdges = n
	return nil
}

// edge reads one [parent, child] array, opening nesting level depth.
func (d *decoder) edge(e *[2]int, depth int) error {
	s := &d.s
	n, err := s.Array(func(i int) error {
		if i >= len(e) {
			return s.Skip(depth)
		}
		return s.Int(&e[i])
	})
	for ; n < len(e) && err == nil; n++ {
		e[n] = 0
	}
	return err
}
