// Command graphgen generates a synthetic Taobao-style retrieval graph and
// prints its statistics — node/edge mixes, degree distribution — so the
// scaled-down analogs can be compared against the paper's §VII-A numbers.
// The first line names the dense-kernel dispatch this build selects on
// this machine ("avx2" or "purego"); bench.sh records it in the
// BENCH_hotpath.json header.
//
// Usage:
//
//	graphgen -scale medium -seed 7
//	graphgen -scale small -out graph.zmrg   # compact binary for zoomer-shard -graph
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/tensor"
)

func main() {
	scale := flag.String("scale", "small", "tiny | small | medium | large | movielens")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "also write the graph as a compact binary file (for zoomer-shard -graph)")
	flag.Parse()

	var cfg loggen.Config
	if *scale == "movielens" {
		cfg = loggen.MovieLensConfig(*seed)
	} else {
		sc, err := loggen.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = loggen.TaobaoConfig(sc, *seed)
	}

	fmt.Printf("simd: %s\n", tensor.SIMD())
	w := core.BuildWorld(cfg)
	logs, g := w.Logs, w.Graph
	st := g.Stats()

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := g.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, n)
	}

	fmt.Printf("scale: %s  seed: %d\n", *scale, *seed)
	fmt.Printf("sessions: %d  interactions: %d\n", len(logs.Sessions), logs.NumInteractions())
	fmt.Printf("nodes: %d  (users %d, queries %d, items %d)\n",
		st.Nodes, st.NodesByType[graph.User], st.NodesByType[graph.Query], st.NodesByType[graph.Item])
	fmt.Printf("edges: %d  (click %d, session %d, similarity %d)\n",
		st.Edges, st.EdgesByType[graph.Click], st.EdgesByType[graph.Session], st.EdgesByType[graph.Similarity])
	fmt.Printf("degree: mean %.2f  max %d\n", st.MeanDegree, st.MaxDegree)

	// Degree distribution deciles.
	degrees := make([]int, g.NumNodes())
	for i := range degrees {
		degrees[i] = g.Degree(graph.NodeID(i))
	}
	sort.Ints(degrees)
	fmt.Print("degree deciles:")
	for d := 0; d <= 10; d++ {
		idx := d * (len(degrees) - 1) / 10
		fmt.Printf(" %d", degrees[idx])
	}
	fmt.Println()

	// Edge mix between node-type pairs (the paper reports e.g. "75% are
	// user-user edges" for the 12-hour graph).
	var mix [graph.NumNodeTypes][graph.NumNodeTypes]int
	for id := 0; id < g.NumNodes(); id++ {
		from := g.Type(graph.NodeID(id))
		for _, e := range g.Neighbors(graph.NodeID(id)) {
			mix[from][g.Type(e.To)]++
		}
	}
	fmt.Println("edge mix (% of directed edges):")
	types := []graph.NodeType{graph.User, graph.Query, graph.Item}
	for _, a := range types {
		for _, b := range types {
			if mix[a][b] == 0 {
				continue
			}
			fmt.Printf("  %s-%s: %.1f%%\n", a, b, 100*float64(mix[a][b])/float64(st.Edges))
		}
	}
}
