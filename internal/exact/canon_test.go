package exact

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/model"
)

// TestCanonicalTree pins the tree ScheduleFor rebuilds from values alone.
// On the cascade tests' random networks (tied and typed palettes) and a
// tables-shaped k=3, n=48 network, every way of producing the values —
// the crossover fill, an exhaustive fill (no crossover search, no block
// skip), a 2-worker parallel fill, exact.Schedule and a
// WriteTo/ReadTableBytes round trip — must yield the identical tree.
// Every node's split must be the exhaustive argmin taken with strict
// improvement in evalState's scan order (oracleSplit), and the engine
// must score the tree at exactly the table value.
func TestCanonicalTree(t *testing.T) {
	sets := append(cascadeNetworks(), benchK3N48Set())
	for i, set := range sets {
		name := fmt.Sprintf("network %d", i)
		inst, err := Analyze(set)
		if err != nil {
			t.Fatal(err)
		}
		newDP := func() *DP {
			dp, err := inst.NewDP()
			if err != nil {
				t.Fatal(err)
			}
			return dp
		}
		exhaustive := newDP()
		exhaustive.monotonePivot = false
		exhaustive.noCascade = true
		exhaustive.FillAll()
		crossover := newDP()
		crossover.FillAll()
		parallel := newDP()
		parallel.fillLayers(2) // FillAllParallel would clamp to GOMAXPROCS
		loaded := roundTrip(t, &Table{dp: crossover}).dp

		want, err := exhaustive.ScheduleFor(set, inst.SourceType, inst.Counts, inst.DestsByType)
		if err != nil {
			t.Fatalf("%s: exhaustive fill: %v", name, err)
		}
		checkOracleTree(t, name, exhaustive, inst, want)
		for src, dp := range map[string]*DP{"crossover": crossover, "parallel": parallel, "loaded": loaded} {
			got, err := dp.ScheduleFor(set, inst.SourceType, inst.Counts, inst.DestsByType)
			if err != nil {
				t.Fatalf("%s: %s fill: %v", name, src, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: %s fill rebuilds\n%v\nexhaustive fill rebuilds\n%v", name, src, got, want)
			}
		}
		sch, err := Schedule(set)
		if err != nil {
			t.Fatalf("%s: exact.Schedule: %v", name, err)
		}
		if !sch.Equal(want) {
			t.Fatalf("%s: exact.Schedule rebuilds\n%v\nexhaustive fill rebuilds\n%v", name, sch, want)
		}
	}
}

// checkOracleTree asserts that every split of sch is oracleSplit's and
// that the engine scores sch at exactly the DP value of the full query.
func checkOracleTree(t *testing.T, name string, dp *DP, inst *Instance, sch *model.Schedule) {
	t.Helper()
	k := len(inst.Types)
	typeOf := make([]int, len(inst.Set.Nodes))
	typeOf[0] = inst.SourceType
	for j, ids := range inst.DestsByType {
		for _, id := range ids {
			typeOf[id] = j
		}
	}
	// below[v] counts the destinations of each type in v's subtree,
	// excluding v itself.
	below := make([][]int, len(inst.Set.Nodes))
	var count func(v model.NodeID) []int
	count = func(v model.NodeID) []int {
		c := make([]int, k)
		for _, ch := range sch.Children(v) {
			for j, x := range count(ch) {
				c[j] += x
			}
			c[typeOf[ch]]++
		}
		below[v] = c
		return c
	}
	count(0)
	if !slices.Equal(below[0], inst.Counts) {
		t.Fatalf("%s: tree covers %v, want %v", name, below[0], inst.Counts)
	}
	for v := range below {
		s := typeOf[v]
		cur := slices.Clone(below[v])
		for _, ch := range sch.Children(v) {
			val := dp.value[dp.stateIndex(s, dp.encodeVec(cur))]
			best, l, y := oracleSplit(dp, s, cur)
			if best != val {
				t.Fatalf("%s: node %d counts %v: table value %d, exhaustive minimum %d", name, v, cur, val, best)
			}
			if l != typeOf[ch] || !slices.Equal(y, below[ch]) {
				t.Fatalf("%s: node %d counts %v: child of type %d covering %v, oracle split type %d covering %v",
					name, v, cur, typeOf[ch], below[ch], l, y)
			}
			for j := range cur {
				cur[j] -= y[j]
			}
			cur[l]--
		}
	}
	var eng model.Engine
	eng.Attach(sch)
	if got, want := eng.RT(), dp.value[dp.stateIndex(inst.SourceType, dp.encodeVec(inst.Counts))]; got != want {
		t.Fatalf("%s: engine scores the tree %d, table value %d", name, got, want)
	}
}

// oracleSplit is the exhaustive argmin of the Lemma 4 recurrence at
// (s, vec) over the filled values of dp, in evalState's scan order:
// reserved type l ascending, then the non-pivot axes as an odometer with
// odo[0] fastest, then the pivot coordinate ascending; only a strict
// improvement replaces the incumbent. It enumerates by nested loops over
// an explicit axis order rather than sharing split's odometer.
func oracleSplit(dp *DP, s int, vec []int) (best int64, l int, y []int) {
	k := len(vec)
	var axes []int // slowest first
	for d := len(dp.odo) - 1; d >= 0; d-- {
		axes = append(axes, dp.odo[d])
	}
	axes = append(axes, dp.pivot)
	S, L := dp.types[s].Send, dp.latency
	best = inf
	for lc := 0; lc < k; lc++ {
		if vec[lc] == 0 {
			continue
		}
		base := slices.Clone(vec)
		base[lc]--
		cur, rem := make([]int, k), make([]int, k)
		var walk func(d int)
		walk = func(d int) {
			if d == k {
				for j := range rem {
					rem[j] = base[j] - cur[j]
				}
				a := dp.value[dp.stateIndex(lc, dp.encodeVec(cur))] + S + L + dp.types[lc].Recv
				b := dp.value[dp.stateIndex(s, dp.encodeVec(rem))] + S
				if v := max(a, b); v < best {
					best, l, y = v, lc, slices.Clone(cur)
				}
				return
			}
			ax := axes[d]
			for c := 0; c <= base[ax]; c++ {
				cur[ax] = c
				walk(d + 1)
			}
			cur[ax] = 0
		}
		walk(0)
	}
	return best, l, y
}

// TestTableSchedule: Table.Schedule rebuilds exact.Schedule's tree from
// a built table and from a read-only mapped load of it (the values are
// only read), for every source type the network's inventory admits, and
// refuses an instance of another network.
func TestTableSchedule(t *testing.T) {
	set := cascadeNetworks()[0]
	built, err := BuildTable(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.hnowtbl")
	if err := WriteTableFile(path, built); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenTableMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	types, counts := built.Types(), built.Counts()
	checked := 0
	for src := range types {
		srcSet, _ := tableSet(set.Latency, types, src, counts)
		inst, err := Analyze(srcSet)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(inst.Types, types) {
			continue // a type held only by the old source leaves the inventory
		}
		want, err := Schedule(srcSet)
		if err != nil {
			t.Fatal(err)
		}
		for name, tab := range map[string]*Table{"built": built, "mapped": mapped} {
			got, err := tab.Schedule(inst)
			if err != nil {
				t.Fatalf("source type %d, %s table: %v", src, name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("source type %d, %s table rebuilds\n%v\nexact.Schedule rebuilds\n%v", src, name, got, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no source type kept the network's inventory")
	}

	other := &model.MulticastSet{Latency: set.Latency + 1, Nodes: set.Nodes}
	inst, err := Analyze(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Schedule(inst); err == nil {
		t.Error("a table rebuilt a tree for another network's instance")
	}
}
