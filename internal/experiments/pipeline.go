package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/postal"
	"repro/internal/stats"
)

// E13Pipelining sweeps the segment count for a fixed total message,
// exhibiting the classic crossover between the paper's greedy tree
// (optimal for a single message) and deep pipelines (chains) once the
// message is streamed in many segments.
func E13Pipelining() string {
	var b strings.Builder
	b.WriteString("E13: pipelined multicast -- segment-count sweep for a fixed total message\n\n")
	// A 256KB message on the default network; per-segment instances come
	// from instantiating the profiles at the segment size (fixed parts
	// are paid per segment, as in real protocol stacks).
	spec := cluster.Spec{Network: cluster.Default(), SourceProfile: 0, Counts: []int{16, 12, 8}}
	const totalBytes = 256 << 10
	tb := stats.NewTable("segments", "seg size", "greedy tree", "chain", "binomial", "best")
	type competitor struct {
		name  string
		build func(set *model.MulticastSet) (*model.Schedule, error)
	}
	comps := []competitor{
		{"greedy tree", core.ScheduleWithReversal},
		{"chain", baselines.Chain{}.Schedule},
		{"binomial", baselines.Binomial{}.Schedule},
	}
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		segBytes := int64((totalBytes + m - 1) / m)
		set, err := spec.Instance(segBytes)
		if err != nil {
			return fmt.Sprintf("E13: %v", err)
		}
		rts := make([]int64, len(comps))
		bestName, bestRT := "", int64(0)
		for i, c := range comps {
			sch, err := c.build(set)
			if err != nil {
				return fmt.Sprintf("E13: %s: %v", c.name, err)
			}
			rt, err := modelRT(sch, model.PipelineModel{Segments: m})
			if err != nil {
				return fmt.Sprintf("E13: %v", err)
			}
			rts[i] = rt
			if bestName == "" || rt < bestRT {
				bestName, bestRT = c.name, rt
			}
		}
		tb.AddRow(m, fmt.Sprintf("%dKB", segBytes>>10), rts[0], rts[1], rts[2], bestName)
	}
	b.WriteString(tb.String())
	b.WriteString("\nWith realistic per-segment fixed costs, segmentation has a sweet spot\n" +
		"(M=16 here) and the greedy tree keeps winning: every extra segment\n" +
		"re-pays the fixed overheads, which punishes the chain's n sequential\n" +
		"hops hardest.\n\n")

	// Pure-bandwidth regime: overheads divide with the segment count (no
	// fixed component), the classic model in which chains win at high M.
	set2, err := cluster.Generate(cluster.GenConfig{N: 24, K: 2, MaxSend: 40, RatioMin: 1.05, RatioMax: 1.3, Latency: 2, Seed: 4})
	if err != nil {
		return fmt.Sprintf("E13: %v", err)
	}
	tb2 := stats.NewTable("segments", "greedy tree", "chain", "binomial", "best")
	for _, m := range []int{1, 4, 16, 64, 256} {
		sp, err := pipeline.SplitSet(set2, m)
		if err != nil {
			return fmt.Sprintf("E13: %v", err)
		}
		rts := make([]int64, len(comps))
		bestName, bestRT := "", int64(0)
		for i, c := range comps {
			sch, err := c.build(sp)
			if err != nil {
				return fmt.Sprintf("E13: %s: %v", c.name, err)
			}
			rt, err := modelRT(sch, model.PipelineModel{Segments: m})
			if err != nil {
				return fmt.Sprintf("E13: %v", err)
			}
			rts[i] = rt
			if bestName == "" || rt < bestRT {
				bestName, bestRT = c.name, rt
			}
		}
		tb2.AddRow(m, rts[0], rts[1], rts[2], bestName)
	}
	b.WriteString("Pure-bandwidth overheads (costs divide with M, no fixed component):\n")
	b.WriteString(tb2.String())
	b.WriteString("\nHere the classic crossover appears: the greedy tree wins the\n" +
		"single-shot regime (the paper's setting) and the chain's full overlap\n" +
		"wins once the message streams in many segments.\n")
	return b.String()
}

// modelRT binds cm onto sch, which the experiment owns, and scores it.
func modelRT(sch *model.Schedule, cm model.CostModel) (int64, error) {
	sch.BindModel(cm)
	if err := cm.Validate(sch.Set); err != nil {
		return 0, err
	}
	var tm model.Times
	err := model.EvalTimes(sch, &tm)
	return tm.RT, err
}

// E14Postal compares the postal-model optimal tree shape (the paper's
// homogeneous reference [4]) against the heterogeneity-aware greedy.
func E14Postal(trials int) string {
	if trials <= 0 {
		trials = 80
	}
	var b strings.Builder
	b.WriteString("E14: postal-model baseline (Bar-Noy & Kipnis, reference [4])\n\n")
	tb := stats.NewTable("cluster", "postal/greedy RT", "postal wins", "effective lambda range")
	for _, cfg := range []struct {
		name string
		gen  cluster.GenConfig
	}{
		{"homogeneous", cluster.GenConfig{N: 48, K: 1, MaxSend: 8}},
		{"mild k=2", cluster.GenConfig{N: 48, K: 2, RatioMin: 1.05, RatioMax: 1.25, MaxSend: 8}},
		{"paper band k=3", cluster.GenConfig{N: 48, K: 3, RatioMin: 1.05, RatioMax: 1.85, MaxSend: 32}},
		{"high latency", cluster.GenConfig{N: 48, K: 2, Latency: 100, MaxSend: 8}},
	} {
		var pSum, gSum float64
		wins := 0
		minL, maxL := int64(1<<62), int64(0)
		for t := 0; t < trials; t++ {
			g := cfg.gen
			g.Seed = int64(t)*53 + 9
			set, err := cluster.Generate(g)
			if err != nil {
				return fmt.Sprintf("E14: %v", err)
			}
			lam := postal.EffectiveLambda(set)
			if lam < minL {
				minL = lam
			}
			if lam > maxL {
				maxL = lam
			}
			ps, err := (postal.Scheduler{}).Schedule(set)
			if err != nil {
				return fmt.Sprintf("E14: %v", err)
			}
			gs, err := core.ScheduleWithReversal(set)
			if err != nil {
				return fmt.Sprintf("E14: %v", err)
			}
			prt, grt := model.RT(ps), model.RT(gs)
			pSum += float64(prt)
			gSum += float64(grt)
			if prt < grt {
				wins++
			}
		}
		tb.AddRow(cfg.name, pSum/gSum, fmt.Sprintf("%d/%d", wins, trials), fmt.Sprintf("%d-%d", minL, maxL))
	}
	b.WriteString(tb.String())
	b.WriteString("\nThe postal shape is competitive on homogeneous clusters (it is optimal\n" +
		"in its own model) but cannot adapt to per-node overheads, so greedy\n" +
		"pulls ahead exactly where the paper's model has information to exploit.\n")
	return b.String()
}
