// Package trace renders and serializes multicast schedules: ASCII Gantt
// charts for terminal inspection (the textual equivalent of the paper's
// Figure 1), Graphviz DOT for diagrams, and a JSON codec for tooling.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/model"
)

// Gantt renders an ASCII Gantt chart of the schedule: one row per node,
// with S blocks for sending overhead, R for receiving overhead, and dots
// for idle time. maxWidth caps the number of time columns (the chart is
// rescaled if the completion time exceeds it); pass 0 for the default 100.
func Gantt(sch *model.Schedule, maxWidth int) string {
	if maxWidth <= 0 {
		maxWidth = 100
	}
	tm := model.ComputeTimes(sch)
	tl := model.Timeline(sch)
	span := tm.RT
	if span == 0 {
		return "(empty schedule)\n"
	}
	scale := columnScale(span, maxWidth)
	var b strings.Builder
	fmt.Fprintf(&b, "time units per column: %d, completion RT=%d DT=%d\n", scale, tm.RT, tm.DT)
	width := int(span/scale) + 1
	for v, intervals := range tl {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range intervals {
			ch := byte('S')
			if iv.Kind == "recv" {
				ch = 'R'
			}
			from, to := int(iv.Start/scale), int((iv.End-1)/scale)
			for c := from; c <= to && c < width; c++ {
				row[c] = ch
			}
		}
		name := sch.Set.Nodes[v].Name
		if name == "" {
			name = fmt.Sprintf("n%d", v)
		}
		fmt.Fprintf(&b, "%3d %-8s |%s| r=%d\n", v, name, string(row), tm.Reception[v])
	}
	return b.String()
}

// columnScale returns the smallest number of time units per column that
// fits span in maxWidth columns: the least scale with span/scale <=
// maxWidth. It is computed in closed form, since a search for it takes
// O(span/maxWidth) steps, hours for a large latency.
func columnScale(span int64, maxWidth int) int64 {
	return span/(int64(maxWidth)+1) + 1
}

// DOT renders the schedule as a Graphviz digraph; edge labels carry the
// child rank and delivery time.
func DOT(sch *model.Schedule) string {
	tm := model.ComputeTimes(sch)
	var b strings.Builder
	b.WriteString("digraph multicast {\n  rankdir=TB;\n  node [shape=box];\n")
	for v := 0; v < len(sch.Set.Nodes); v++ {
		n := sch.Set.Nodes[v]
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("n%d", v)
		}
		fmt.Fprintf(&b, "  %d [label=\"%s\\nid=%d s=%d r=%d\\nrecv@%d\"];\n", v, label, v, n.Send, n.Recv, tm.Reception[v])
	}
	for v := 0; v < len(sch.Set.Nodes); v++ {
		for i, c := range sch.Children(model.NodeID(v)) {
			fmt.Fprintf(&b, "  %d -> %d [label=\"#%d d=%d\"];\n", v, c, i+1, tm.Delivery[c])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// MarshalJSON serializes a schedule with its multicast set as compact
// JSON, byte for byte what encoding/json writes for the codec's schema.
// Edges are listed so that parents always precede their children and each
// parent's edges appear in delivery order, allowing loss-free
// reconstruction.
func MarshalJSON(sch *model.Schedule) ([]byte, error) {
	return MarshalTimes(sch, new(model.Times))
}

// MarshalTimes is MarshalJSON for a caller that also needs the times: it
// validates sch, evaluates it under its bound cost model into tm and
// encodes it, so a caller reading RT and DT from tm scores the plan once.
func MarshalTimes(sch *model.Schedule, tm *model.Times) ([]byte, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if err := model.EvalTimes(sch, tm); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return encode(sch.Set, sch, tm), nil
}

// encodeBufs holds appendJSON scratch buffers. encode returns an exact-size
// copy, so an encoding kept in a cache carries no slack capacity.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

func encode(set *model.MulticastSet, sch *model.Schedule, tm *model.Times) []byte {
	bp := encodeBufs.Get().(*[]byte)
	*bp = appendJSON((*bp)[:0], set, sch, tm)
	out := bytes.Clone(*bp)
	encodeBufs.Put(bp)
	return out
}

// appendJSON appends the json.Marshal encoding of the codec's schema
// (jsonSchedule in decode_test.go) for set, the edges of sch (nil: no
// edges) and its timing (nil: omitted), written by hand so the hot path
// skips reflection. Edges are emitted in BFS order, which keeps parents
// before children.
func appendJSON(b []byte, set *model.MulticastSet, sch *model.Schedule, tm *model.Times) []byte {
	n := len(set.Nodes)
	b = append(b, `{"latency":`...)
	b = strconv.AppendInt(b, set.Latency, 10)
	b = append(b, `,"nodes":`...)
	if n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, nd := range set.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"send":`...)
			b = strconv.AppendInt(b, nd.Send, 10)
			b = append(b, `,"recv":`...)
			b = strconv.AppendInt(b, nd.Recv, 10)
			if nd.Name != "" {
				name, _ := json.Marshal(nd.Name) // a string always encodes
				b = append(b, `,"name":`...)
				b = append(b, name...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"edges":`...)
	edges := 0
	if sch != nil {
		queue := append(make([]model.NodeID, 0, n), 0)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, c := range sch.Children(v) {
				if edges == 0 {
					b = append(b, '[')
				} else {
					b = append(b, ',')
				}
				edges++
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(c), 10)
				b = append(b, ']')
				queue = append(queue, c)
			}
		}
	}
	if edges == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	if tm != nil {
		b = append(b, `,"timing":{"rt":`...)
		b = strconv.AppendInt(b, tm.RT, 10)
		b = append(b, `,"dt":`...)
		b = strconv.AppendInt(b, tm.DT, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// UnmarshalJSON reconstructs a schedule (and its multicast set) from the
// MarshalJSON encoding. It accepts exactly what encoding/json accepts for
// the codec's schema (any whitespace and field order, keys in any case,
// unknown fields), decoded by hand in one pass: see decode.go.
func UnmarshalJSON(data []byte) (*model.Schedule, error) {
	d, err := decodeSchedule(data)
	if err != nil {
		return nil, err
	}
	defer d.release()
	set := d.set()
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("trace: embedded set invalid: %w", err)
	}
	sch := model.NewSchedule(set)
	for _, e := range d.edges[:d.nEdges] {
		if err := sch.AddChild(model.NodeID(e[0]), model.NodeID(e[1])); err != nil {
			return nil, fmt.Errorf("trace: edge (%d,%d): %w", e[0], e[1], err)
		}
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decoded schedule invalid: %w", err)
	}
	return sch, nil
}

// MarshalSetJSON serializes just a multicast set, as compact JSON.
func MarshalSetJSON(set *model.MulticastSet) ([]byte, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return encode(set, nil, nil), nil
}

// UnmarshalSetJSON reads a multicast set written by MarshalSetJSON (or a
// full schedule encoding, whose edges are then checked and ignored). It
// shares UnmarshalJSON's one-pass decoder and accepts the same inputs.
func UnmarshalSetJSON(data []byte) (*model.MulticastSet, error) {
	d, err := decodeSchedule(data)
	if err != nil {
		return nil, err
	}
	set := d.set()
	d.release()
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// Tree renders the schedule as an indented tree with reception times,
// similar to the annotated trees in the paper's Figure 1.
func Tree(sch *model.Schedule) string {
	tm := model.ComputeTimes(sch)
	var b strings.Builder
	var rec func(v model.NodeID, depth int)
	rec = func(v model.NodeID, depth int) {
		n := sch.Set.Nodes[v]
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("n%d", v)
		}
		fmt.Fprintf(&b, "%s%s (send=%d recv=%d) [%d]\n", strings.Repeat("  ", depth), name, n.Send, n.Recv, tm.Reception[v])
		for _, c := range sch.Children(v) {
			rec(c, depth+1)
		}
	}
	rec(0, 0)
	return b.String()
}

// CompareTable formats a per-scheduler RT comparison as an aligned table;
// rows are sorted by completion time.
func CompareTable(results map[string]int64) string {
	type row struct {
		name string
		rt   int64
	}
	rows := make([]row, 0, len(results))
	for k, v := range results {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rt != rows[j].rt {
			return rows[i].rt < rows[j].rt
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	w := 12
	for _, r := range rows {
		if len(r.name) > w {
			w = len(r.name)
		}
	}
	best := float64(rows[0].rt)
	fmt.Fprintf(&b, "%-*s %10s %8s\n", w, "scheduler", "RT", "vs best")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %10d %7.2fx\n", w, r.name, r.rt, float64(r.rt)/best)
	}
	return b.String()
}
