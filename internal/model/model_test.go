package model

import (
	"strings"
	"testing"
)

// figure1Set builds the instance of Figure 1 of the paper: a slow source
// (send 2, recv 3), three fast destinations (1, 1) and one slow destination
// (2, 3), network latency 1.
//
// IDs: 0 = slow source, 1..3 = fast destinations, 4 = slow destination.
func figure1Set(t *testing.T) *MulticastSet {
	t.Helper()
	fast := Node{Send: 1, Recv: 1, Name: "fast"}
	slow := Node{Send: 2, Recv: 3, Name: "slow"}
	s, err := NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatalf("figure1Set: %v", err)
	}
	return s
}

// figure1ScheduleA is the schedule of Figure 1(a): source sends to two fast
// nodes; the first fast node sends to a fast node then the slow node.
// Completion (reception) time 10.
func figure1ScheduleA(t *testing.T, s *MulticastSet) *Schedule {
	t.Helper()
	sch := NewSchedule(s)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(1, 3)
	sch.MustAddChild(1, 4)
	return sch
}

// figure1ScheduleB is a schedule matching Figure 1(b): the first fast node
// sends to the slow node first, then to the last fast node. Completion
// time 9.
func figure1ScheduleB(t *testing.T, s *MulticastSet) *Schedule {
	t.Helper()
	sch := NewSchedule(s)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(1, 4)
	sch.MustAddChild(1, 3)
	return sch
}

func TestFigure1ScheduleA(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tm := ComputeTimes(sch)
	// The paper walks through these exact values: the first fast node
	// receives at time 4, the second at 6, the fast grandchild at 7 and
	// the slow grandchild at 10.
	wantReception := []int64{0, 4, 6, 7, 10}
	for v, want := range wantReception {
		if tm.Reception[v] != want {
			t.Errorf("reception[%d] = %d, want %d", v, tm.Reception[v], want)
		}
	}
	if tm.RT != 10 {
		t.Errorf("RT = %d, want 10 (Figure 1(a))", tm.RT)
	}
	wantDelivery := []int64{0, 3, 5, 6, 7}
	for v, want := range wantDelivery {
		if tm.Delivery[v] != want {
			t.Errorf("delivery[%d] = %d, want %d", v, tm.Delivery[v], want)
		}
	}
}

func TestFigure1ScheduleB(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleB(t, s)
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := RT(sch); got != 9 {
		t.Errorf("RT = %d, want 9 (Figure 1(b))", got)
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	cases := []struct {
		name string
		set  MulticastSet
	}{
		{"empty", MulticastSet{Latency: 1}},
		{"zero latency", MulticastSet{Latency: 0, Nodes: []Node{{Send: 1, Recv: 1}}}},
		{"negative latency", MulticastSet{Latency: -2, Nodes: []Node{{Send: 1, Recv: 1}}}},
		{"zero send", MulticastSet{Latency: 1, Nodes: []Node{{Send: 0, Recv: 1}}}},
		{"zero recv", MulticastSet{Latency: 1, Nodes: []Node{{Send: 1, Recv: 0}}}},
		{"uncorrelated", MulticastSet{Latency: 1, Nodes: []Node{{Send: 1, Recv: 5}, {Send: 2, Recv: 1}}}},
		{"equal send different recv", MulticastSet{Latency: 1, Nodes: []Node{{Send: 2, Recv: 5}, {Send: 2, Recv: 1}}}},
		{"cost bound overflows", MulticastSet{Latency: 1 << 61, Nodes: []Node{
			{Send: 1 << 61, Recv: 1 << 61}, {Send: 1 << 61, Recv: 1 << 61},
			{Send: 1 << 61, Recv: 1 << 61}, {Send: 1 << 61, Recv: 1 << 61}}}},
		{"cost bound just past MaxCost", MulticastSet{Latency: MaxCost/2 - 1, Nodes: []Node{
			{Send: 1, Recv: 1}, {Send: 1, Recv: 1}}}},
	}
	for _, c := range cases {
		if err := c.set.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid set", c.name)
		}
	}
}

func TestValidateAcceptsCorrelatedSets(t *testing.T) {
	s := MulticastSet{Latency: 3, Nodes: []Node{
		{Send: 5, Recv: 9}, {Send: 1, Recv: 2}, {Send: 5, Recv: 9}, {Send: 1, Recv: 2}, {Send: 3, Recv: 3},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// One below MaxCost: 2 nodes × (1 + 1 + (MaxCost/2 - 2)).
	edge := MulticastSet{Latency: MaxCost/2 - 2, Nodes: []Node{{Send: 1, Recv: 1}, {Send: 1, Recv: 1}}}
	if err := edge.Validate(); err != nil {
		t.Fatalf("Validate at the cost bound: %v", err)
	}
}

func TestSortedDestinations(t *testing.T) {
	s := MulticastSet{Latency: 1, Nodes: []Node{
		{Send: 9, Recv: 9}, // source, excluded
		{Send: 5, Recv: 6},
		{Send: 1, Recv: 1},
		{Send: 5, Recv: 6},
		{Send: 2, Recv: 4},
	}}
	got := s.SortedDestinations()
	want := []NodeID{2, 4, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SortedDestinations[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRatioStats(t *testing.T) {
	s := figure1Set(t)
	st := s.Ratios()
	// Fast nodes have ratio 1, slow nodes 1.5.
	if st.AlphaMin != 1.0 || st.AlphaMax != 1.5 {
		t.Errorf("alpha = [%v, %v], want [1, 1.5]", st.AlphaMin, st.AlphaMax)
	}
	// Destination receiving overheads are {1,1,1,3}: beta = 2.
	if st.Beta != 2 {
		t.Errorf("beta = %d, want 2", st.Beta)
	}
}

func TestScheduleValidateIncomplete(t *testing.T) {
	s := figure1Set(t)
	sch := NewSchedule(s)
	sch.MustAddChild(0, 1)
	if sch.Complete() {
		t.Error("Complete() on a partial schedule")
	}
	if err := sch.Validate(); err == nil {
		t.Error("Validate accepted a partial schedule")
	}
}

func TestAddChildErrors(t *testing.T) {
	s := figure1Set(t)
	sch := NewSchedule(s)
	if err := sch.AddChild(0, 0); err == nil {
		t.Error("AddChild(0,0) accepted (source as child)")
	}
	if err := sch.AddChild(1, 2); err == nil {
		t.Error("AddChild from unattached parent accepted")
	}
	sch.MustAddChild(0, 1)
	if err := sch.AddChild(0, 1); err == nil {
		t.Error("double attach accepted")
	}
	if err := sch.AddChild(0, 99); err == nil {
		t.Error("out of range child accepted")
	}
	if err := sch.AddChild(-1, 2); err == nil {
		t.Error("out of range parent accepted")
	}
}

func TestChildRankAndLeaves(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	if r := sch.ChildRank(1); r != 1 {
		t.Errorf("ChildRank(1) = %d, want 1", r)
	}
	if r := sch.ChildRank(2); r != 2 {
		t.Errorf("ChildRank(2) = %d, want 2", r)
	}
	if r := sch.ChildRank(4); r != 2 {
		t.Errorf("ChildRank(4) = %d, want 2", r)
	}
	if r := sch.ChildRank(0); r != 0 {
		t.Errorf("ChildRank(root) = %d, want 0", r)
	}
	leaves := sch.Leaves()
	want := []NodeID{2, 3, 4}
	if len(leaves) != len(want) {
		t.Fatalf("Leaves = %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("Leaves = %v, want %v", leaves, want)
		}
	}
}

func TestSwapNodesLeaves(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	// Swap leaf 2 (2nd child of source, delivery 5) with leaf 4 (2nd child
	// of node 1, delivery 7).
	if err := sch.SwapNodes(2, 4); err != nil {
		t.Fatalf("SwapNodes: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
	tm := ComputeTimes(sch)
	if tm.Delivery[4] != 5 || tm.Delivery[2] != 7 {
		t.Errorf("deliveries after swap: d(4)=%d d(2)=%d, want 5 and 7", tm.Delivery[4], tm.Delivery[2])
	}
	// Slow leaf now delivered at 5, reception 8; fast leaf at 7, reception
	// 8; RT improves from 10 to 8. (This is exactly the leaf-reversal
	// improvement the paper describes at the end of Section 3.)
	if tm.RT != 8 {
		t.Errorf("RT after swap = %d, want 8", tm.RT)
	}
}

func TestSwapNodesSameParent(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	before := ComputeTimes(sch)
	if err := sch.SwapNodes(3, 4); err != nil { // both children of node 1
		t.Fatalf("SwapNodes: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
	tm := ComputeTimes(sch)
	if tm.Delivery[4] != before.Delivery[3] || tm.Delivery[3] != before.Delivery[4] {
		t.Errorf("same-parent swap did not exchange delivery times: %v vs %v", tm.Delivery, before.Delivery)
	}
}

func TestSwapNodesParentChild(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	// Node 1 is the parent of node 3. Swapping them must keep the tree valid.
	if err := sch.SwapNodes(1, 3); err != nil {
		t.Fatalf("SwapNodes: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate after parent-child swap: %v", err)
	}
	// Node 3 takes node 1's position: first child of source with children
	// (1, 4); node 1 becomes a leaf.
	if sch.Parent(3) != 0 || sch.Parent(1) != 3 || sch.Parent(4) != 3 {
		t.Errorf("structure after swap: parent(3)=%d parent(1)=%d parent(4)=%d", sch.Parent(3), sch.Parent(1), sch.Parent(4))
	}
	if !sch.IsLeaf(1) {
		t.Error("node 1 should be a leaf after the swap")
	}
}

func TestSwapNodesErrors(t *testing.T) {
	s := figure1Set(t)
	sch := NewSchedule(s)
	sch.MustAddChild(0, 1)
	if err := sch.SwapNodes(1, 2); err == nil {
		t.Error("SwapNodes with unattached node accepted")
	}
	if err := sch.SwapNodes(0, 1); err == nil {
		t.Error("SwapNodes with the source accepted")
	}
	if err := sch.SwapNodes(1, 1); err != nil {
		t.Errorf("SwapNodes(v, v) should be a no-op, got %v", err)
	}
}

func TestIsLayered(t *testing.T) {
	s := figure1Set(t)
	a := figure1ScheduleA(t, s)
	// Schedule (a) delivers the fast nodes at 3, 5, 6 and the slow one at
	// 7: layered.
	if !IsLayered(a) {
		t.Error("Figure 1(a) should be layered")
	}
	// A schedule delivering the slow destination before a fast one is not
	// layered.
	sch := NewSchedule(s)
	sch.MustAddChild(0, 4)
	sch.MustAddChild(0, 1)
	sch.MustAddChild(0, 2)
	sch.MustAddChild(0, 3)
	if IsLayered(sch) {
		t.Error("slow-first star should not be layered")
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := figure1Set(t)
	a := figure1ScheduleA(t, s)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	b := figure1ScheduleB(t, s)
	if a.Equal(b) {
		t.Error("Equal() conflates Figure 1(a) and a different child order")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := figure1Set(t)
	a := figure1ScheduleA(t, s)
	c := a.Clone()
	if err := c.SwapNodes(3, 4); err != nil {
		t.Fatalf("SwapNodes: %v", err)
	}
	if a.Equal(c) {
		t.Error("mutating the clone changed the original (or Equal is broken)")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	s := figure1Set(t)
	a := figure1ScheduleA(t, s)
	str := a.String()
	if str != "0(1(3 4) 2)" {
		t.Errorf("String() = %q, want %q", str, "0(1(3 4) 2)")
	}
	if !strings.HasPrefix(str, "0(") {
		t.Errorf("String() should start at the root: %q", str)
	}
}

func TestTimeline(t *testing.T) {
	s := figure1Set(t)
	a := figure1ScheduleA(t, s)
	tl := Timeline(a)
	// Source: two sends of length 2 starting at 0.
	src := tl[0]
	if len(src) != 2 || src[0].Kind != "send" || src[0].Start != 0 || src[0].End != 2 || src[1].Start != 2 || src[1].End != 4 {
		t.Errorf("source timeline = %+v", src)
	}
	// Node 1: recv [3,4), then sends [4,5) and [5,6).
	n1 := tl[1]
	if len(n1) != 3 {
		t.Fatalf("node 1 timeline = %+v", n1)
	}
	if n1[0].Kind != "recv" || n1[0].Start != 3 || n1[0].End != 4 || n1[0].Peer != 0 {
		t.Errorf("node 1 recv interval = %+v", n1[0])
	}
	if n1[1].Kind != "send" || n1[1].Start != 4 || n1[1].End != 5 || n1[1].Peer != 3 {
		t.Errorf("node 1 first send = %+v", n1[1])
	}
	if n1[2].Start != 5 || n1[2].End != 6 || n1[2].Peer != 4 {
		t.Errorf("node 1 second send = %+v", n1[2])
	}
	// Leaves have exactly one recv interval.
	for _, v := range []NodeID{2, 3, 4} {
		if len(tl[v]) != 1 || tl[v][0].Kind != "recv" {
			t.Errorf("leaf %d timeline = %+v", v, tl[v])
		}
	}
	// Intervals on any node never overlap.
	for v, iv := range tl {
		for i := 1; i < len(iv); i++ {
			if iv[i].Start < iv[i-1].End {
				t.Errorf("node %d intervals overlap: %+v then %+v", v, iv[i-1], iv[i])
			}
		}
	}
}

func TestSingleNodeSet(t *testing.T) {
	s, err := NewMulticastSet(1, Node{Send: 2, Recv: 2})
	if err != nil {
		t.Fatalf("NewMulticastSet: %v", err)
	}
	sch := NewSchedule(s)
	if !sch.Complete() {
		t.Error("source-only schedule should be complete")
	}
	if err := sch.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	tm := ComputeTimes(sch)
	if tm.RT != 0 || tm.DT != 0 {
		t.Errorf("times for source-only schedule: RT=%d DT=%d", tm.RT, tm.DT)
	}
	if !IsLayered(sch) {
		t.Error("trivial schedule should be layered")
	}
}

func TestRemoveLeafAndInsertChild(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	// Remove node 3, the first child of node 1.
	parent, idx, err := sch.RemoveLeaf(3)
	if err != nil {
		t.Fatalf("RemoveLeaf: %v", err)
	}
	if parent != 1 || idx != 0 {
		t.Errorf("RemoveLeaf returned (%d, %d), want (1, 0)", parent, idx)
	}
	if sch.Parent(3) != -1 {
		t.Error("node 3 still attached")
	}
	// Node 4 shifted to rank 1: its delivery time drops.
	tm := ComputeTimes(sch)
	if tm.Delivery[4] != 6 {
		t.Errorf("d(4) after removal = %d, want 6", tm.Delivery[4])
	}
	// Undo exactly.
	if err := sch.InsertChild(parent, 3, idx); err != nil {
		t.Fatalf("InsertChild: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate after reinsert: %v", err)
	}
	restored := figure1ScheduleA(t, s)
	if !sch.Equal(restored) {
		t.Errorf("remove+insert did not restore the tree: %s vs %s", sch, restored)
	}
}

func TestRemoveLeafErrors(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	if _, _, err := sch.RemoveLeaf(1); err == nil {
		t.Error("RemoveLeaf accepted an internal node")
	}
	if _, _, err := sch.RemoveLeaf(0); err == nil {
		t.Error("RemoveLeaf accepted the root")
	}
	partial := NewSchedule(s)
	if _, _, err := partial.RemoveLeaf(2); err == nil {
		t.Error("RemoveLeaf accepted an unattached node")
	}
}

func TestInsertChildErrors(t *testing.T) {
	s := figure1Set(t)
	sch := figure1ScheduleA(t, s)
	if err := sch.InsertChild(0, 3, 0); err == nil {
		t.Error("InsertChild accepted an attached node")
	}
	if _, _, err := sch.RemoveLeaf(3); err != nil {
		t.Fatal(err)
	}
	if err := sch.InsertChild(0, 3, 9); err == nil {
		t.Error("InsertChild accepted an out-of-range index")
	}
	if err := sch.InsertChild(3, 3, 0); err == nil {
		t.Error("InsertChild accepted a self parent")
	}
	if err := sch.InsertChild(0, 3, 1); err != nil {
		t.Fatalf("valid InsertChild rejected: %v", err)
	}
	// Node 3 is now the second child of the source.
	if sch.ChildRank(3) != 2 {
		t.Errorf("rank = %d, want 2", sch.ChildRank(3))
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertChildIntoUnattachedParent(t *testing.T) {
	s := figure1Set(t)
	sch := NewSchedule(s)
	sch.MustAddChild(0, 1)
	if err := sch.InsertChild(2, 3, 0); err == nil {
		t.Error("InsertChild accepted an unattached parent")
	}
}
