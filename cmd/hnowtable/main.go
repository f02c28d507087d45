// Command hnowtable precomputes the Theorem 2 optimal-schedule table for a
// network and answers optimal-multicast queries in constant time. Built
// tables can be persisted in the daemon's spill format and reloaded, so a
// CLI pre-build can feed a daemon started with the same -table-dir.
//
// Usage:
//
//	hnowgen -n 40 -k 3 | hnowtable                      # table stats
//	hnowtable -set c.json -query 1:3,1                  # T(source type 1; 3 of type 0, 1 of type 1)
//	hnowtable -set c.json -all                          # dump every state
//	hnowtable -set c.json -save tables/                 # pre-build for `hnowd -table-dir tables/`
//	hnowtable -set c.json -save tables/ -workers 0      # parallel fill on every core
//	hnowtable -load tables/ab/cdef.hnowtbl -query 1:3,1 # query a persisted table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/exact"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	setPath := flag.String("set", "-", "instance JSON ('-' = stdin); its nodes define the network inventory")
	query := flag.String("query", "", "optimal-time query 'srcType:c0,c1,...' (counts per type)")
	all := flag.Bool("all", false, "dump the full table")
	save := flag.String("save", "", "persist the built table: a file path, or an existing directory (e.g. a daemon -table-dir) to use the canonical sharded spill path")
	load := flag.String("load", "", "load a persisted table instead of building (-set is ignored)")
	workers := flag.Int("workers", 1, "table-fill parallelism (clamped to GOMAXPROCS; 0 = GOMAXPROCS)")
	flag.Parse()

	var table *exact.Table
	if *load != "" {
		var err error
		table, err = exact.ReadTableFile(*load)
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded %s: %d distinct types, latency %d\n", *load, table.K(), table.Latency())
		for i, ty := range table.Types() {
			fmt.Printf("  type %d: send=%d recv=%d (x%d destinations)\n", i, ty.Send, ty.Recv, table.Counts()[i])
		}
	} else {
		data, err := readInput(*setPath)
		if err != nil {
			fail(err)
		}
		set, err := trace.UnmarshalSetJSON(data)
		if err != nil {
			fail(err)
		}
		inst, err := exact.Analyze(set)
		if err != nil {
			fail(err)
		}
		fmt.Printf("network: %d nodes, %d distinct types, latency %d\n", len(set.Nodes), inst.K(), set.Latency)
		for i, ty := range inst.Types {
			fmt.Printf("  type %d: send=%d recv=%d (x%d destinations)\n", i, ty.Send, ty.Recv, inst.Counts[i])
		}
		table, err = exact.BuildTableParallel(set, *workers)
		if err != nil {
			fail(err)
		}
	}
	fmt.Printf("states precomputed: %d (%d of %d source planes stored after dedup)\n",
		table.States(), table.Planes(), table.K())

	if *save != "" {
		path := *save
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			path, err = service.SpillPath(path, table)
			if err != nil {
				fail(err)
			}
		}
		if err := exact.WriteTableFile(path, table); err != nil {
			fail(err)
		}
		fmt.Printf("saved: %s\n", path)
	}

	if *query != "" {
		src, counts, err := parseQuery(*query, table.K())
		if err != nil {
			fail(err)
		}
		rt, err := table.Lookup(src, counts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("T(source type %d; counts %v) = %d\n", src, counts, rt)
	}
	if *all {
		dump(table)
	}
}

func parseQuery(q string, k int) (int, []int, error) {
	parts := strings.SplitN(q, ":", 2)
	if len(parts) != 2 {
		return 0, nil, fmt.Errorf("query must be 'srcType:c0,c1,...', got %q", q)
	}
	src, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad source type: %v", err)
	}
	fields := strings.Split(parts[1], ",")
	if len(fields) != k {
		return 0, nil, fmt.Errorf("query has %d counts, network has %d types", len(fields), k)
	}
	counts := make([]int, k)
	for i, f := range fields {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return 0, nil, fmt.Errorf("bad count %q: %v", f, err)
		}
		counts[i] = c
	}
	return src, counts, nil
}

func dump(table *exact.Table) {
	counts := table.Counts()
	k := table.K()
	vec := make([]int, k)
	var rec func(j int)
	rec = func(j int) {
		if j == k {
			for s := 0; s < k; s++ {
				rt, err := table.Lookup(s, vec)
				if err != nil {
					fail(err)
				}
				fmt.Printf("T(%d; %v) = %d\n", s, vec, rt)
			}
			return
		}
		for vec[j] = 0; vec[j] <= counts[j]; vec[j]++ {
			rec(j + 1)
		}
		vec[j] = 0
	}
	rec(0)
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hnowtable: %v\n", err)
	os.Exit(1)
}
