package exact

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

func figure1Set(t *testing.T) *model.MulticastSet {
	t.Helper()
	fast := model.Node{Send: 1, Recv: 1, Name: "fast"}
	slow := model.Node{Send: 2, Recv: 3, Name: "slow"}
	s, err := model.NewMulticastSet(1, slow, fast, fast, fast, slow)
	if err != nil {
		t.Fatalf("figure1Set: %v", err)
	}
	return s
}

// randTypedSet builds a random set drawing nodes from a small palette of
// types, so the DP stays cheap.
func randTypedSet(rng *rand.Rand, n, numTypes int) *model.MulticastSet {
	palette := make([]model.Node, numTypes)
	send, recv := int64(1), int64(1)
	for i := range palette {
		send += int64(1 + rng.Intn(3))
		r := send + int64(rng.Intn(int(send)+1))
		if r <= recv {
			r = recv + 1 // keep recv correlated with send across the palette
		}
		recv = r
		palette[i] = model.Node{Send: send, Recv: recv}
	}
	nodes := make([]model.Node, n+1)
	for i := range nodes {
		nodes[i] = palette[rng.Intn(numTypes)]
	}
	set := &model.MulticastSet{Latency: int64(1 + rng.Intn(3)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		panic(err)
	}
	return set
}

func TestAnalyzeFigure1(t *testing.T) {
	inst, err := Analyze(figure1Set(t))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if inst.K() != 2 {
		t.Fatalf("K = %d, want 2", inst.K())
	}
	// Types sorted by overhead: fast (1,1) then slow (2,3).
	if inst.Types[0] != (Type{1, 1}) || inst.Types[1] != (Type{2, 3}) {
		t.Errorf("types = %+v", inst.Types)
	}
	if inst.SourceType != 1 {
		t.Errorf("source type = %d, want 1 (slow)", inst.SourceType)
	}
	if inst.Counts[0] != 3 || inst.Counts[1] != 1 {
		t.Errorf("counts = %v, want [3 1]", inst.Counts)
	}
	if len(inst.DestsByType[0]) != 3 || len(inst.DestsByType[1]) != 1 {
		t.Errorf("dests by type = %v", inst.DestsByType)
	}
}

func TestFigure1Optimal(t *testing.T) {
	set := figure1Set(t)
	opt, err := OptimalRT(set)
	if err != nil {
		t.Fatalf("OptimalRT: %v", err)
	}
	// The paper's Figure 1 shows schedules completing at 10 and 9; the
	// true optimum for the instance is 8 (the slow destination takes the
	// source's second delivery slot at time 5 and finishes at 8 while a
	// fast relay covers the remaining fast nodes by 8).
	if opt != 8 {
		t.Errorf("DP optimal RT = %d, want 8", opt)
	}
	bf, err := BruteForceRT(set)
	if err != nil {
		t.Fatalf("BruteForceRT: %v", err)
	}
	if bf != opt {
		t.Errorf("brute force RT = %d, DP = %d", bf, opt)
	}
	sch, err := Schedule(set)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := model.RT(sch); got != opt {
		t.Errorf("reconstructed schedule RT = %d, DP value = %d", got, opt)
	}
}

func TestDPMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		set := randTypedSet(rng, n, 1+rng.Intn(3))
		opt, err := OptimalRT(set)
		if err != nil {
			t.Fatalf("trial %d: OptimalRT: %v", trial, err)
		}
		bf, err := BruteForceRT(set)
		if err != nil {
			t.Fatalf("trial %d: BruteForceRT: %v", trial, err)
		}
		if opt != bf {
			t.Fatalf("trial %d: DP=%d brute=%d for %+v", trial, opt, bf, set)
		}
	}
}

func TestDPMatchesBruteForceAllDistinctTypes(t *testing.T) {
	// With every node a distinct type the DP degenerates to the
	// exponential exact algorithm; it must still agree with brute force.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		nodes := make([]model.Node, n+1)
		send, recv := int64(1), int64(1)
		for i := range nodes {
			send += int64(1 + rng.Intn(2))
			r := send + int64(rng.Intn(4))
			if r <= recv {
				r = recv + 1
			}
			recv = r
			nodes[i] = model.Node{Send: send, Recv: recv}
		}
		set := &model.MulticastSet{Latency: int64(1 + rng.Intn(2)), Nodes: nodes}
		if err := set.Validate(); err != nil {
			t.Fatalf("invalid set: %v", err)
		}
		opt, err := OptimalRT(set)
		if err != nil {
			t.Fatalf("OptimalRT: %v", err)
		}
		bf, err := BruteForceRT(set)
		if err != nil {
			t.Fatalf("BruteForceRT: %v", err)
		}
		if opt != bf {
			t.Fatalf("trial %d: DP=%d brute=%d for %+v", trial, opt, bf, set)
		}
	}
}

func TestReconstructedScheduleMatchesDPValue(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		set := randTypedSet(rng, n, 1+rng.Intn(3))
		opt, err := OptimalRT(set)
		if err != nil {
			t.Fatalf("OptimalRT: %v", err)
		}
		sch, err := Schedule(set)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := sch.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if got := model.RT(sch); got != opt {
			t.Fatalf("trial %d: schedule RT %d != DP %d\nset %+v\ntree %s", trial, got, opt, set, sch)
		}
	}
}

func TestOptimalNeverAboveGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		set := randTypedSet(rng, n, 1+rng.Intn(3))
		opt, err := OptimalRT(set)
		if err != nil {
			t.Fatalf("OptimalRT: %v", err)
		}
		g, err := core.Schedule(set)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		if rt := model.RT(g); rt < opt {
			t.Fatalf("trial %d: greedy RT %d below optimal %d (oracle broken)", trial, rt, opt)
		}
	}
}

func TestLemma2GreedyMinimizesDTOverLayered(t *testing.T) {
	// Corollary 1: greedy's delivery completion time is minimum over all
	// layered schedules. Verified exhaustively for small instances.
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(3) // 2..4 destinations keeps enumeration fast
		set := randTypedSet(rng, n, 1+rng.Intn(2))
		g, err := core.Schedule(set)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		greedyDT := model.DT(g)
		minLayered := int64(1 << 60)
		count := 0
		err = EnumerateSchedules(set, func(s *model.Schedule) bool {
			tm := model.ComputeTimes(s)
			if model.IsLayeredTimes(s, tm) && tm.DT < minLayered {
				minLayered = tm.DT
			}
			count++
			return true
		})
		if err != nil {
			t.Fatalf("EnumerateSchedules: %v", err)
		}
		if count == 0 {
			t.Fatal("no schedules enumerated")
		}
		if greedyDT != minLayered {
			t.Fatalf("trial %d: greedy DT %d != min layered DT %d (n=%d set=%+v)", trial, greedyDT, minLayered, n, set)
		}
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		set := randTypedSet(rng, 1+rng.Intn(4), 1+rng.Intn(3))
		minRT := int64(1 << 60)
		if err := EnumerateSchedules(set, func(s *model.Schedule) bool {
			if rt := model.RT(s); rt < minRT {
				minRT = rt
			}
			return true
		}); err != nil {
			t.Fatalf("EnumerateSchedules: %v", err)
		}
		bf, err := BruteForceRT(set)
		if err != nil {
			t.Fatalf("BruteForceRT: %v", err)
		}
		if minRT != bf {
			t.Fatalf("trial %d: enumeration min %d != brute force %d", trial, minRT, bf)
		}
	}
}

func TestTableFillAllAndLookup(t *testing.T) {
	set := figure1Set(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	if table.K() != 2 {
		t.Fatalf("K = %d", table.K())
	}
	// Full instance: source slow (type 1), 3 fast + 1 slow.
	got, err := table.Lookup(1, []int{3, 1})
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got != 8 {
		t.Errorf("Lookup full instance = %d, want 8", got)
	}
	// Sub-multicasts: 0 destinations costs 0; one fast destination from a
	// fast source costs S+L+R = 1+1+1 = 3.
	if v, _ := table.Lookup(0, []int{0, 0}); v != 0 {
		t.Errorf("Lookup zero = %d", v)
	}
	if v, _ := table.Lookup(0, []int{1, 0}); v != 3 {
		t.Errorf("Lookup fast->fast = %d, want 3", v)
	}
	// Slow source to one slow destination: 2 + 1 + 3 = 6.
	if v, _ := table.Lookup(1, []int{0, 1}); v != 6 {
		t.Errorf("Lookup slow->slow = %d, want 6", v)
	}
	// Errors.
	if _, err := table.Lookup(5, []int{0, 0}); err == nil {
		t.Error("Lookup with bad source type accepted")
	}
	if _, err := table.Lookup(0, []int{9, 0}); err == nil {
		t.Error("Lookup with excessive count accepted")
	}
}

// TestFinishTableRejectsPartialFill: FinishTable must refuse a DP that
// was never filled and seal a filled one into a working table, and a DP
// is filled once: a second fill leaves its values and EvalColumns as
// they were.
func TestFinishTableRejectsPartialFill(t *testing.T) {
	dp, err := New(2, []Type{{Send: 1, Recv: 2}, {Send: 2, Recv: 3}}, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.FinishTable(); err == nil {
		t.Error("FinishTable sealed an unfilled DP")
	}
	src := &model.MulticastSet{Latency: 2, Nodes: []model.Node{{Send: 1, Recv: 2}}}
	if _, err := dp.ScheduleFor(src, 0, []int{0, 0}, [][]model.NodeID{nil, nil}); err == nil {
		t.Error("ScheduleFor read an unfilled DP")
	}
	dp.FillAllParallel(2)
	values := slices.Clone(dp.value)
	cols := dp.EvalColumns()
	dp.FillAll()
	if !slices.Equal(dp.value, values) || dp.EvalColumns() != cols {
		t.Errorf("a second fill changed the DP: EvalColumns %d -> %d", cols, dp.EvalColumns())
	}
	tbl, err := dp.FinishTable()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup(0, []int{3, 3}); err != nil {
		t.Errorf("sealed table lookup: %v", err)
	}
}

func TestTableMonotonicity(t *testing.T) {
	// Adding a destination can never decrease the optimal completion time.
	set := figure1Set(t)
	table, err := BuildTable(set)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	for s := 0; s < 2; s++ {
		for i0 := 0; i0 <= 3; i0++ {
			for i1 := 0; i1 <= 1; i1++ {
				v, err := table.Lookup(s, []int{i0, i1})
				if err != nil {
					t.Fatal(err)
				}
				if i0 > 0 {
					prev, _ := table.Lookup(s, []int{i0 - 1, i1})
					if v < prev {
						t.Errorf("T(%d,%d,%d)=%d < T(%d,%d,%d)=%d", s, i0, i1, v, s, i0-1, i1, prev)
					}
				}
				if i1 > 0 {
					prev, _ := table.Lookup(s, []int{i0, i1 - 1})
					if v < prev {
						t.Errorf("T(%d,%d,%d)=%d < T(%d,%d,%d)=%d", s, i0, i1, v, s, i0, i1-1, prev)
					}
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []Type{{1, 1}}, []int{1}); err == nil {
		t.Error("zero latency accepted")
	}
	if _, err := New(1, nil, nil); err == nil {
		t.Error("no types accepted")
	}
	if _, err := New(1, []Type{{1, 1}}, []int{1, 2}); err == nil {
		t.Error("mismatched counts accepted")
	}
	if _, err := New(1, []Type{{1, 1}, {1, 1}}, []int{1, 1}); err == nil {
		t.Error("duplicate types accepted")
	}
	if _, err := New(1, []Type{{0, 1}}, []int{1}); err == nil {
		t.Error("non-positive overhead accepted")
	}
	if _, err := New(1, []Type{{1, 1}}, []int{-1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := New(1, []Type{{1, 1}, {2, 2}}, []int{1 << 14, 1 << 14}); err == nil {
		t.Error("oversized state space accepted")
	}
}

func TestOptimalQueryValidation(t *testing.T) {
	dp, err := New(1, []Type{{1, 1}, {2, 3}}, []int{3, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dp.FillAll()
	tbl, err := dp.FinishTable()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Lookup(-1, []int{0, 0}); err == nil {
		t.Error("negative source type accepted")
	}
	if _, err := tbl.Lookup(0, []int{4, 0}); err == nil {
		t.Error("count above limit accepted")
	}
	if _, err := tbl.Lookup(0, []int{1}); err == nil {
		t.Error("short count vector accepted")
	}
}

func TestBruteForceLimits(t *testing.T) {
	nodes := make([]model.Node, MaxBruteForceN+2)
	for i := range nodes {
		nodes[i] = model.Node{Send: 1, Recv: 1}
	}
	set := &model.MulticastSet{Latency: 1, Nodes: nodes}
	if _, err := BruteForceRT(set); err == nil {
		t.Error("brute force accepted oversized instance")
	}
}

func TestBruteForceScheduleIsOptimal(t *testing.T) {
	set := figure1Set(t)
	sch, rt, err := bruteForce(set, true)
	if err != nil {
		t.Fatalf("bruteForce: %v", err)
	}
	if rt != 8 {
		t.Errorf("RT = %d, want 8", rt)
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := model.RT(sch); got != rt {
		t.Errorf("schedule RT %d != reported %d", got, rt)
	}
}

func TestSolverInterface(t *testing.T) {
	var s model.Scheduler = Solver{}
	if s.Name() != "dp-optimal" {
		t.Errorf("Name = %q", s.Name())
	}
	sch, err := s.Schedule(figure1Set(t))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if model.RT(sch) != 8 {
		t.Errorf("RT = %d, want 8", model.RT(sch))
	}
}

func TestZeroDestinationInstance(t *testing.T) {
	set, err := model.NewMulticastSet(1, model.Node{Send: 2, Recv: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalRT(set)
	if err != nil {
		t.Fatalf("OptimalRT: %v", err)
	}
	if opt != 0 {
		t.Errorf("RT = %d, want 0", opt)
	}
	sch, err := Schedule(set)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !sch.Complete() {
		t.Error("empty schedule should be complete")
	}
}

func BenchmarkDPFigure1Scaled(b *testing.B) {
	// k=2 network with 40 destinations.
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	nodes := []model.Node{slow}
	for i := 0; i < 30; i++ {
		nodes = append(nodes, fast)
	}
	for i := 0; i < 10; i++ {
		nodes = append(nodes, slow)
	}
	set := &model.MulticastSet{Latency: 1, Nodes: nodes}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalRT(set); err != nil {
			b.Fatal(err)
		}
	}
}
