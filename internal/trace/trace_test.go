package trace

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func figure1Schedule(t *testing.T) *model.Schedule {
	t.Helper()
	fast := model.Node{Send: 1, Recv: 1, Name: "fast"}
	slow := model.Node{Send: 2, Recv: 3, Name: "slow"}
	set, err := model.NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(1, 3)
	sch.MustAddChild(1, 4)
	return sch
}

func TestGantt(t *testing.T) {
	sch := figure1Schedule(t)
	g := Gantt(sch, 0)
	if !strings.Contains(g, "RT=10") {
		t.Errorf("Gantt missing completion time:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 6 { // header + 5 nodes
		t.Errorf("Gantt has %d lines, want 6:\n%s", len(lines), g)
	}
	// Source row: two S blocks, no R.
	if strings.Contains(lines[1], "R") {
		t.Errorf("source row shows receiving overhead:\n%s", g)
	}
	if !strings.Contains(lines[1], "SSSS") {
		t.Errorf("source row should show 4 send columns:\n%s", g)
	}
	// Rescaling: a width cap of 5 must shrink the chart.
	small := Gantt(sch, 5)
	if !strings.Contains(small, "time units per column: 2") {
		t.Errorf("rescaled Gantt header wrong:\n%s", small)
	}
}

// TestColumnScaleMatchesSearch checks the closed form against the
// search it replaced: the least scale with span/scale <= maxWidth.
func TestColumnScaleMatchesSearch(t *testing.T) {
	search := func(span int64, maxWidth int) int64 {
		scale := int64(1)
		for span/scale > int64(maxWidth) {
			scale++
		}
		return scale
	}
	for span := int64(1); span <= 600; span++ {
		for w := 1; w <= 120; w++ {
			if got, want := columnScale(span, w), search(span, w); got != want {
				t.Fatalf("columnScale(%d, %d) = %d, want %d", span, w, got, want)
			}
		}
	}
}

// TestGanttLargeLatency renders a chart whose completion time is near
// 3e15: a search for the column scale would take about 3e13 steps.
func TestGanttLargeLatency(t *testing.T) {
	const L = 1_000_000_000_000_000
	set, err := model.NewMulticastSet(L, model.Node{Send: 1, Recv: 1}, model.Node{Send: 2, Recv: 3}, model.Node{Send: 1, Recv: 1})
	if err != nil {
		t.Fatal(err)
	}
	sch := model.NewSchedule(set)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(1, 2)
	rt := model.RT(sch)
	g := Gantt(sch, 0)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 4 {
		t.Fatalf("Gantt has %d lines, want 4:\n%s", len(lines), g)
	}
	if want := fmt.Sprintf("time units per column: %d,", rt/101+1); !strings.HasPrefix(lines[0], want) {
		t.Errorf("header %q, want prefix %q", lines[0], want)
	}
	for _, row := range lines[1:] {
		i, j := strings.IndexByte(row, '|'), strings.LastIndexByte(row, '|')
		if j-i-1 > 101 {
			t.Errorf("row has %d columns, want at most 101: %q", j-i-1, row)
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	set, err := model.NewMulticastSet(1, model.Node{Send: 1, Recv: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := Gantt(model.NewSchedule(set), 0)
	if !strings.Contains(g, "empty") {
		t.Errorf("empty Gantt = %q", g)
	}
}

func TestDOT(t *testing.T) {
	sch := figure1Schedule(t)
	d := DOT(sch)
	for _, want := range []string{"digraph multicast", "0 -> 1", "0 -> 2", "1 -> 3", "1 -> 4", "recv@10"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q:\n%s", want, d)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(d), "}") {
		t.Error("DOT not closed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sch := figure1Schedule(t)
	data, err := MarshalJSON(sch)
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	back, err := UnmarshalJSON(data)
	if err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if !back.Equal(sch) {
		t.Errorf("round trip changed schedule: %s vs %s", back, sch)
	}
	if back.Set.Latency != sch.Set.Latency {
		t.Error("latency lost")
	}
	for i := range sch.Set.Nodes {
		if back.Set.Nodes[i] != sch.Set.Nodes[i] {
			t.Errorf("node %d changed: %+v vs %+v", i, back.Set.Nodes[i], sch.Set.Nodes[i])
		}
	}
	if model.RT(back) != 10 {
		t.Errorf("decoded RT = %d", model.RT(back))
	}
}

func TestJSONRoundTripGenerated(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 25, K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.ScheduleWithReversal(set)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalJSON(sch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(sch) {
		t.Error("round trip changed generated schedule")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalJSON([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := UnmarshalJSON([]byte(`{"latency":0,"nodes":[],"edges":[]}`)); err == nil {
		t.Error("invalid embedded set accepted")
	}
	if _, err := UnmarshalJSON([]byte(`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[[1,1]]}`)); err == nil {
		t.Error("self-loop edge accepted")
	}
	if _, err := UnmarshalJSON([]byte(`{"latency":1,"nodes":[{"send":1,"recv":1},{"send":1,"recv":1}],"edges":[]}`)); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	set, err := cluster.Generate(cluster.GenConfig{N: 10, K: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSetJSON(set)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSetJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Latency != set.Latency || len(back.Nodes) != len(set.Nodes) {
		t.Fatal("set round trip mismatch")
	}
	for i := range set.Nodes {
		if back.Nodes[i] != set.Nodes[i] {
			t.Errorf("node %d mismatch", i)
		}
	}
}

func TestTreeRendering(t *testing.T) {
	sch := figure1Schedule(t)
	tree := Tree(sch)
	if !strings.Contains(tree, "[10]") {
		t.Errorf("tree missing slow reception time:\n%s", tree)
	}
	// Indentation: grandchildren at depth 2.
	if !strings.Contains(tree, "    fast") {
		t.Errorf("tree missing indented grandchild:\n%s", tree)
	}
}

func TestCompareTable(t *testing.T) {
	tbl := CompareTable(map[string]int64{"greedy": 10, "star": 20, "chain": 15})
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), tbl)
	}
	if !strings.Contains(lines[1], "greedy") {
		t.Errorf("best row should be greedy:\n%s", tbl)
	}
	if !strings.Contains(lines[3], "2.00x") {
		t.Errorf("star should be 2.00x:\n%s", tbl)
	}
}

func TestSVGWellFormed(t *testing.T) {
	sch := figure1Schedule(t)
	out := SVG(sch)
	// Must be parseable XML.
	var node struct{}
	if err := xml.Unmarshal([]byte(out), &node); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v\n%s", err, out)
	}
	// One rect per timeline interval plus two legend swatches: the
	// figure-1 schedule has 4 sends + 4 recvs = 8 intervals.
	if got := strings.Count(out, "<rect"); got != 10 {
		t.Errorf("rect count = %d, want 10", got)
	}
	if !strings.Contains(out, "RT=10") {
		t.Error("SVG missing completion annotation")
	}
	// Reception labels for every destination.
	for _, label := range []string{"[4]", "[6]", "[7]", "[10]"} {
		if !strings.Contains(out, label) {
			t.Errorf("SVG missing reception label %s", label)
		}
	}
}

func TestSVGEmptySchedule(t *testing.T) {
	set, err := model.NewMulticastSet(1, model.Node{Send: 1, Recv: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := SVG(model.NewSchedule(set))
	var node struct{}
	if err := xml.Unmarshal([]byte(out), &node); err != nil {
		t.Fatalf("empty SVG not well-formed: %v", err)
	}
}
