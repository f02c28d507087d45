package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/heur"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/wan"
)

// E15WAN evaluates the per-link-latency extension (Bhat et al., the
// paper's reference [5]): on clustered WAN topologies, how much does the
// single-L assumption of the receive-send model cost, and how much does a
// WAN-aware greedy recover?
func E15WAN(trials int) string {
	if trials <= 0 {
		trials = 30
	}
	var b strings.Builder
	b.WriteString("E15: per-link latencies (WAN extension, reference [5])\n\n")
	tb := stats.NewTable("topology", "WAN/LAN ratio", "aware RT", "oblivious RT", "penalty")
	for _, cfg := range []struct {
		name     string
		clusters int
		lan, wan int64
	}{
		{"1 island (LAN only)", 1, 2, 2},
		{"3 islands, mild WAN", 3, 2, 10},
		{"3 islands, heavy WAN", 3, 2, 80},
		{"6 islands, heavy WAN", 6, 2, 80},
	} {
		var aware, oblivious float64
		for seed := int64(0); seed < int64(trials); seed++ {
			topo, err := wan.GenerateClustered(wan.ClusteredConfig{
				Clusters: cfg.clusters, NodesPerCluster: 8,
				LANLatency: cfg.lan, WANLatency: cfg.wan, Seed: seed*13 + 5,
			})
			if err != nil {
				return fmt.Sprintf("E15: %v", err)
			}
			lm := &model.LinkModel{Lat: topo.Lat}
			wsch, err := heur.ModelGreedy{Model: lm}.Schedule(topo.BaseSet(topo.MinLatency()))
			if err != nil {
				return fmt.Sprintf("E15: %v", err)
			}
			wrt, err := modelRT(wsch, lm)
			if err != nil {
				return fmt.Sprintf("E15: %v", err)
			}
			osch, err := core.Schedule(topo.BaseSet(cfg.lan))
			if err != nil {
				return fmt.Sprintf("E15: %v", err)
			}
			ort, err := modelRT(osch, lm)
			if err != nil {
				return fmt.Sprintf("E15: %v", err)
			}
			aware += float64(wrt)
			oblivious += float64(ort)
		}
		tb.AddRow(cfg.name, fmt.Sprintf("%dx", cfg.wan/cfg.lan),
			aware/float64(trials), oblivious/float64(trials), oblivious/aware)
	}
	b.WriteString(tb.String())
	b.WriteString("\nWith one island the two greedies coincide (sanity). As long-haul\n" +
		"links dominate, the single-L greedy crosses the WAN repeatedly and the\n" +
		"aware variant recovers a growing factor -- the motivation for the\n" +
		"Bhat et al. model the paper cites as the WAN-suited alternative.\n")
	return b.String()
}
