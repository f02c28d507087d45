package model

import "fmt"

// refEval evaluates sch under cm from scratch, one direct tree walk per
// model written without the recurrence abstraction. It is the in-package
// oracle the engine tests pin Attach, Eval, EvalMoves, CommitSwap and
// TimesInto to; the scenario packages in turn pin EvalTimes to their own
// evaluators. Value and pointer forms of a model evaluate alike.
func refEval(cm CostModel, sch *Schedule, tm *Times) error {
	switch m := cm.(type) {
	case nil, BaseModel, *BaseModel:
		computeBaseTimesInto(sch, tm)
	case *LinkModel:
		return refLink(m, sch, tm)
	case PipelineModel:
		return refPipeline(m, sch, tm)
	case *PipelineModel:
		return refPipeline(*m, sch, tm)
	case ReduceModel, *ReduceModel:
		refReduce(sch, tm)
	case BarrierModel, *BarrierModel:
		refBarrier(sch, tm)
	case NodeModel:
		refNode(m, sch, tm)
	case *NodeModel:
		refNode(*m, sch, tm)
	default:
		return fmt.Errorf("refEval: no reference for %T", cm)
	}
	return nil
}

// refLink: Delivery/Reception carry the usual receive-send semantics
// with the per-pair latency term.
func refLink(m *LinkModel, sch *Schedule, tm *Times) error {
	n := len(sch.Set.Nodes)
	if len(m.Lat) != n {
		return fmt.Errorf("model: latency matrix sized for %d nodes, set has %d", len(m.Lat), n)
	}
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	stack := append(tm.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		sv := sch.Set.Nodes[v].Send
		row := m.Lat[v]
		for i, w := range sch.children[v] {
			d := rv + int64(i+1)*sv + row[w]
			tm.Delivery[w] = d
			tm.Reception[w] = d + sch.Set.Nodes[w].Recv
			if d > tm.DT {
				tm.DT = d
			}
			if tm.Reception[w] > tm.RT {
				tm.RT = tm.Reception[w]
			}
			stack = append(stack, w)
		}
	}
	tm.stack = stack[:0]
	return nil
}

// refPipeline processes the tree in BFS order: a node's whole op sequence
// recv(1), send(1, kids...), recv(2), ... depends only on its own
// per-segment arrivals, which depend only on its parent's sequence.
func refPipeline(m PipelineModel, sch *Schedule, tm *Times) error {
	if err := CheckSegments(m.Segments); err != nil {
		return err
	}
	set := sch.Set
	n := len(set.Nodes)
	segs := m.Segments
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	// arrive[v*segs+m] is when segment m is fully delivered to v.
	arrive := make([]int64, n*segs)
	// BFS order reusing the stack scratch as a queue.
	order := append(tm.stack[:0], 0)
	for i := 0; i < len(order); i++ {
		order = append(order, sch.children[order[i]]...)
	}
	L := set.Latency
	for _, v := range order {
		free := int64(0)
		kids := sch.children[v]
		sv := set.Nodes[v].Send
		av := arrive[int(v)*segs:]
		for seg := 0; seg < segs; seg++ {
			if v != 0 {
				start := free
				if av[seg] > start {
					start = av[seg]
				}
				free = start + set.Nodes[v].Recv
				if seg == 0 {
					tm.Delivery[v] = av[seg]
				}
				tm.Reception[v] = free
			}
			for _, c := range kids {
				free += sv
				arrive[int(c)*segs+seg] = free + L
			}
		}
	}
	for v := 1; v < n; v++ {
		if tm.Delivery[v] > tm.DT {
			tm.DT = tm.Delivery[v]
		}
		if tm.Reception[v] > tm.RT {
			tm.RT = tm.Reception[v]
		}
	}
	tm.stack = order[:0]
	return nil
}

// refReduce: both per-node times carry the ready time, and DT = RT is
// the root's.
func refReduce(sch *Schedule, tm *Times) {
	n := len(sch.Set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	refReadyInto(sch, tm.Reception, &tm.stack)
	copy(tm.Delivery, tm.Reception)
	tm.DT, tm.RT = tm.Reception[0], tm.Reception[0]
}

// refReadyInto computes the reverse-tree ready times into ready
// (len(set.Nodes) entries; unattached nodes get 0), iteratively: children
// precede parents in reverse BFS order, so one backward pass folds each
// node's children in reverse delivery order.
func refReadyInto(sch *Schedule, ready []int64, scratch *[]NodeID) {
	set := sch.Set
	for i := range ready {
		ready[i] = 0
	}
	order := append((*scratch)[:0], 0)
	for i := 0; i < len(order); i++ {
		order = append(order, sch.children[order[i]]...)
	}
	L := set.Latency
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		kids := sch.children[v]
		if len(kids) == 0 {
			continue
		}
		busy := int64(0)
		rv := set.Nodes[v].Recv
		for j := len(kids) - 1; j >= 0; j-- {
			c := kids[j]
			arrive := ready[c] + set.Nodes[c].Send + L
			if arrive < busy {
				arrive = busy
			}
			busy = arrive + rv
		}
		ready[v] = busy
	}
	*scratch = order[:0]
}

// refBarrier offsets every base-model time by the reduce completion.
func refBarrier(sch *Schedule, tm *Times) {
	computeBaseTimesInto(sch, tm)
	ready := make([]int64, len(sch.Set.Nodes))
	refReadyInto(sch, ready, &tm.stack)
	done := ready[0]
	for i := range tm.Delivery {
		tm.Delivery[i] += done
		tm.Reception[i] += done
	}
	tm.DT += done
	tm.RT += done
}

// refNode: Reception equals Delivery (no receive overhead), so RT = DT.
func refNode(m NodeModel, sch *Schedule, tm *Times) {
	set := sch.Set
	n := len(set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	for i := range tm.Delivery {
		tm.Delivery[i] = 0
		tm.Reception[i] = 0
	}
	tm.DT, tm.RT = 0, 0
	stack := append(tm.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rv := tm.Reception[v]
		cv := set.Nodes[v].Send
		for i, w := range sch.children[v] {
			d := rv + int64(i+1)*cv + m.Lambda
			tm.Delivery[w] = d
			tm.Reception[w] = d
			if d > tm.DT {
				tm.DT = d
			}
			stack = append(stack, w)
		}
	}
	tm.RT = tm.DT
	tm.stack = stack[:0]
}
