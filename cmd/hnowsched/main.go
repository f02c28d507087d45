// Command hnowsched computes a multicast schedule for an HNOW instance.
//
// Usage:
//
//	hnowgen -n 32 | hnowsched -algo greedy+leafrev -format gantt
//	hnowsched -set cluster.json -algo optimal -format dot > tree.dot
//	hnowsched -set cluster.json -algo all          # comparison table
//	hnowsched -model wan -wan 4,8,2,40 -algo all   # WAN latency matrix
//	hnowsched -set cluster.json -model pipeline -segments 8 -algo local-search -format rt
//
// Algorithms: greedy, greedy+leafrev, optimal, star, chain, binomial,
// fnf-nodemodel, random, postal, slowest-first, local-search, annealing,
// beam-search, all.
//
// Cost models (-model): base (the paper's receive-send model), wan (a
// per-link latency matrix, from -lat or a generated clustered topology
// via -wan), pipeline (M-segment pipelined multicast, -segments), reduce
// and barrier. The exact DP and the text renderers are base-only; under a
// non-base model use -format json or rt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wan"
)

func main() {
	setPath := flag.String("set", "-", "instance JSON file ('-' = stdin)")
	algo := flag.String("algo", "greedy+leafrev", "scheduling algorithm or 'all'")
	format := flag.String("format", "tree", "output: tree, gantt, svg, dot, json, rt")
	seed := flag.Int64("seed", 1, "seed for the random baseline")
	width := flag.Int("width", 100, "gantt width in columns")
	modelName := flag.String("model", "base", "cost model: base, wan, pipeline, reduce, barrier")
	segments := flag.Int("segments", 0, "pipeline segment count (model=pipeline)")
	latPath := flag.String("lat", "", "latency matrix JSON file, [][]int64 by node id (model=wan)")
	wanSpec := flag.String("wan", "", "generate a clustered WAN instance instead of -set: clusters,nodes,lan,wan[,k[,maxsend[,seed]]] (model=wan)")
	flag.Parse()

	if *modelName != "pipeline" && *segments != 0 {
		fail(fmt.Errorf("-segments applies to -model pipeline only"))
	}
	if *modelName != "wan" && (*latPath != "" || *wanSpec != "") {
		fail(fmt.Errorf("-lat and -wan apply to -model wan only"))
	}
	if *latPath != "" && *wanSpec != "" {
		fail(fmt.Errorf("-lat and -wan are mutually exclusive"))
	}

	var set *model.MulticastSet
	var cm model.CostModel
	if *wanSpec != "" {
		topo, err := parseWANSpec(*wanSpec)
		if err != nil {
			fail(err)
		}
		set = topo.BaseSet(topo.MinLatency())
		cm = &model.LinkModel{Lat: topo.Lat}
	} else {
		data, err := readInput(*setPath)
		if err != nil {
			fail(err)
		}
		if set, err = trace.UnmarshalSetJSON(data); err != nil {
			fail(err)
		}
		if *modelName == "wan" {
			if *latPath == "" {
				fail(fmt.Errorf("-model wan needs -lat or -wan"))
			}
			lat, err := readLatMatrix(*latPath)
			if err != nil {
				fail(err)
			}
			cm = &model.LinkModel{Lat: lat}
		} else if cm, err = model.ByName(*modelName, *segments); err != nil {
			fail(err)
		}
	}
	if cm != nil {
		if err := cm.Validate(set); err != nil {
			fail(err)
		}
	}

	if *algo == "all" {
		scheds, err := registry.SchedulersFor(*seed, cm)
		if err != nil {
			fail(err)
		}
		results := map[string]int64{}
		for _, s := range scheds {
			sch, err := s.Schedule(set)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hnowsched: %s: %v\n", s.Name(), err)
				continue
			}
			if cm != nil {
				sch.BindModel(cm)
			}
			var tm model.Times
			if err := model.EvalTimes(sch, &tm); err != nil {
				fmt.Fprintf(os.Stderr, "hnowsched: %s: %v\n", s.Name(), err)
				continue
			}
			results[s.Name()] = tm.RT
		}
		if cm == nil {
			if opt, err := exact.OptimalRT(set); err == nil {
				results["dp-optimal"] = opt
			}
		}
		fmt.Print(trace.CompareTable(results))
		if cm == nil {
			p := bounds.ParamsOf(set)
			fmt.Printf("\nTheorem 1 parameters: amin=%.3f amax=%.3f beta=%d C=%.3f\n", p.AlphaMin, p.AlphaMax, p.Beta, p.C)
		} else {
			fmt.Printf("\ncost model: %s (Theorem 1 and the exact DP argue the base model only)\n", cm.Name())
		}
		return
	}

	s, err := registry.LookupFor(*algo, *seed, cm)
	if err != nil {
		fail(err)
	}
	sch, err := s.Schedule(set)
	if err != nil {
		fail(err)
	}
	if cm != nil {
		sch.BindModel(cm)
	}
	out, err := formatSchedule(sch, *format, *width)
	if err != nil {
		fail(err)
	}
	fmt.Print(out)
}

// formatSchedule renders sch in the requested format. The model-aware
// formats (json, rt) work under any bound cost model; everything else
// draws base-model timings, so a non-base binding is rejected up front
// instead of panicking inside requireBase. Keeping the guard inside the
// same function as the base-only calls is what hnowlint's modelbound
// analyzer checks for.
func formatSchedule(sch *model.Schedule, format string, width int) (string, error) {
	switch format {
	case "json":
		out, err := trace.MarshalJSON(sch)
		if err != nil {
			return "", err
		}
		return string(out) + "\n", nil
	case "rt":
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d\n", tm.RT), nil
	}
	if !model.IsBase(sch.Model()) {
		return "", fmt.Errorf("format %q draws base-model timings; under -model %s use json or rt", format, sch.Model().Name())
	}
	switch format {
	case "tree":
		return trace.Tree(sch) + fmt.Sprintf("RT=%d DT=%d layered=%v\n", model.RT(sch), model.DT(sch), model.IsLayered(sch)), nil
	case "gantt":
		return trace.Gantt(sch, width), nil
	case "svg":
		return trace.SVG(sch), nil
	case "dot":
		return trace.DOT(sch), nil
	default:
		return "", fmt.Errorf("unknown format %q (want tree, gantt, svg, dot, json, rt)", format)
	}
}

// parseWANSpec builds a clustered topology from the -wan flag value
// "clusters,nodes,lan,wan[,k[,maxsend[,seed]]]".
func parseWANSpec(spec string) (*wan.Topology, error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 4 || len(parts) > 7 {
		return nil, fmt.Errorf("-wan wants clusters,nodes,lan,wan[,k[,maxsend[,seed]]], got %q", spec)
	}
	vals := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-wan field %d: %w", i+1, err)
		}
		vals[i] = v
	}
	cfg := wan.ClusteredConfig{
		Clusters:        int(vals[0]),
		NodesPerCluster: int(vals[1]),
		LANLatency:      vals[2],
		WANLatency:      vals[3],
	}
	if len(vals) > 4 {
		cfg.K = int(vals[4])
	}
	if len(vals) > 5 {
		cfg.MaxSend = vals[5]
	}
	if len(vals) > 6 {
		cfg.Seed = vals[6]
	}
	return wan.GenerateClustered(cfg)
}

// readLatMatrix loads a latency matrix from a JSON file: [][]int64
// indexed by node id, zero diagonal.
func readLatMatrix(path string) ([][]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lat [][]int64
	if err := json.Unmarshal(data, &lat); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return lat, nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hnowsched: %v\n", err)
	os.Exit(1)
}
