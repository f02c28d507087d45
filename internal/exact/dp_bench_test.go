package exact

import (
	"testing"

	"repro/internal/model"
)

// benchK3N60Set is the acceptance-criteria network: k=3, 60 destinations.
func benchK3N60Set() *model.MulticastSet {
	a := model.Node{Send: 1, Recv: 1}
	b := model.Node{Send: 2, Recv: 3}
	c := model.Node{Send: 3, Recv: 5}
	nodes := []model.Node{b}
	for i := 0; i < 20; i++ {
		nodes = append(nodes, a, b, c)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

func benchK2N40Set() *model.MulticastSet {
	fast := model.Node{Send: 1, Recv: 1}
	slow := model.Node{Send: 2, Recv: 3}
	nodes := []model.Node{slow}
	for i := 0; i < 30; i++ {
		nodes = append(nodes, fast)
	}
	for i := 0; i < 10; i++ {
		nodes = append(nodes, slow)
	}
	return &model.MulticastSet{Latency: 1, Nodes: nodes}
}

// BenchmarkDPSolve measures a single full-instance Optimal on the layered
// iterative solver (k=2, 40 destinations).
func BenchmarkDPSolve(b *testing.B) {
	set := benchK2N40Set()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalRT(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFillAllSeq(b *testing.B) {
	set := benchK3N60Set()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFillAllPar(b *testing.B) {
	set := benchK3N60Set()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTableParallel(set, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillAllReference measures the retained seed recursive solver on
// the same network, so the speedup of the iterative fill stays visible.
func BenchmarkFillAllReference(b *testing.B) {
	set := benchK3N60Set()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := referenceFillAllRT(set); err != nil {
			b.Fatal(err)
		}
	}
}
