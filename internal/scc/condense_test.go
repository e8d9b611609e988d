package scc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sortCondense is the comparison-sort condensation that condense replaced,
// kept as the reference its output must match bit for bit: edges collected
// and deduplicated by sort.Slice, components renumbered by sort.Slice over
// (level, smallest member), and the final adjacency re-sorted.
func sortCondense(d *decomposer, numProv int) *Result {
	g, n := d.g, d.g.NumNodes()

	var edges []refEdge
	for v := 0; v < n; v++ {
		cu := d.comp[v]
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			if cv := d.comp[u]; cv != cu {
				edges = append(edges, refEdge{cu, cv})
			}
		}
	}
	edges = refDedup(edges)

	provLevel := make([]int32, numProv)
	indeg := make([]int32, numProv)
	off, adj := refCSR(numProv, edges)
	for _, e := range edges {
		indeg[e.to]++
	}
	queue := make([]int32, 0, numProv)
	for c := int32(0); c < int32(numProv); c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		for _, e := range adj[off[c]:off[c+1]] {
			if l := provLevel[c] + 1; l > provLevel[e] {
				provLevel[e] = l
			}
			if indeg[e]--; indeg[e] == 0 {
				queue = append(queue, e)
			}
		}
	}

	minVert := make([]int32, numProv)
	for c := range minVert {
		minVert[c] = int32(n)
	}
	for v := n - 1; v >= 0; v-- {
		minVert[d.comp[v]] = int32(v)
	}
	order := make([]int32, numProv)
	for c := range order {
		order[c] = int32(c)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if provLevel[a] != provLevel[b] {
			return provLevel[a] < provLevel[b]
		}
		return minVert[a] < minVert[b]
	})
	perm := make([]int32, numProv)
	for newID, old := range order {
		perm[old] = int32(newID)
	}

	res := &Result{
		Comp:     d.comp,
		NumComps: numProv,
		Level:    make([]int32, numProv),
	}
	maxLevel := int32(0)
	for newID, old := range order {
		res.Level[newID] = provLevel[old]
		if provLevel[old] > maxLevel {
			maxLevel = provLevel[old]
		}
	}
	res.Levels = make([][]int32, maxLevel+1)
	for c := int32(0); c < int32(numProv); c++ {
		l := res.Level[c]
		res.Levels[l] = append(res.Levels[l], c)
	}
	for v := 0; v < n; v++ {
		res.Comp[v] = perm[res.Comp[v]]
	}

	res.CompOff = make([]int64, numProv+1)
	for v := 0; v < n; v++ {
		res.CompOff[res.Comp[v]+1]++
	}
	for c := 0; c < numProv; c++ {
		res.CompOff[c+1] += res.CompOff[c]
	}
	res.CompVerts = make([]graph.NodeID, n)
	cur := make([]int64, numProv)
	for v := 0; v < n; v++ {
		c := res.Comp[v]
		res.CompVerts[res.CompOff[c]+cur[c]] = graph.NodeID(v)
		cur[c]++
	}

	for i := range edges {
		edges[i] = refEdge{perm[edges[i].from], perm[edges[i].to]}
	}
	edges = refDedup(edges)
	res.AdjOff, res.Adj = refCSR(numProv, edges)
	return res
}

type refEdge struct{ from, to int32 }

func refDedup(edges []refEdge) []refEdge {
	if len(edges) == 0 {
		return edges
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func refCSR(numComps int, edges []refEdge) ([]int64, []int32) {
	off := make([]int64, numComps+1)
	adj := make([]int32, len(edges))
	for _, e := range edges {
		off[e.from+1]++
	}
	for c := 0; c < numComps; c++ {
		off[c+1] += off[c]
	}
	cur := make([]int64, numComps)
	for _, e := range edges {
		adj[off[e.from]+cur[e.from]] = e.to
		cur[e.from]++
	}
	return off, adj
}

// parallelCrossEdges builds small directed cycles (one component each)
// joined by forward edges that repeat both exact vertex pairs and distinct
// vertex pairs between the same two components, so most cross-component
// edges collapse onto an already-seen condensation edge.
func parallelCrossEdges(t testing.TB) *graph.Graph {
	t.Helper()
	const comps, size = 60, 4
	var edges []graph.Edge
	for c := 0; c < comps; c++ {
		for i := 0; i < size; i++ {
			edges = append(edges, graph.Edge{
				Src: graph.NodeID(c*size + i), Dst: graph.NodeID(c*size + (i+1)%size),
			})
		}
	}
	r := rand.New(rand.NewSource(5))
	for range 1500 {
		a, b := r.Intn(comps), r.Intn(comps)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := graph.Edge{Src: graph.NodeID(a*size + r.Intn(size)), Dst: graph.NodeID(b*size + r.Intn(size))}
		edges = append(edges, e, e)
	}
	// Shuffle so the CSR rows do not arrive in component order.
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g, err := graph.FromEdges(comps*size, edges, false, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paDAG is a preferential-attachment graph: every edge points from a newer
// to an older vertex, so the graph is acyclic and every edge crosses
// components. Without dedup it also carries parallel edges.
func paDAG(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 8, 29, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withoutTimings returns a copy of r with the two wall-clock fields zeroed,
// the only fields allowed to differ between equal decompositions.
func withoutTimings(r *Result) Result {
	c := *r
	c.PartitionTime, c.CondenseTime = 0, 0
	return c
}

// TestCondenseMatchesSortReference pins condense's counting-pass build to
// the comparison-sort reference on the same provisional partition, field
// for field, and pins the Result to the sequential one across worker
// counts.
func TestCondenseMatchesSortReference(t *testing.T) {
	graphs := testGraphs(t)
	for name, g := range adversarialGraphs(t) {
		graphs["adversarial/"+name] = g
	}
	graphs["pa-dag"] = paDAG(t, 3000)
	graphs["parallel-cross-edges"] = parallelCrossEdges(t)

	for name, g := range graphs {
		if g.NumNodes() == 0 {
			continue // Decompose returns before condensing
		}
		seq := withoutTimings(Decompose(g, 1))
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				d := newDecomposer(g, workers)
				numProv := d.partition()
				prov := slices.Clone(d.comp)
				got := d.condense(numProv)
				d.comp = prov
				want := sortCondense(d, numProv)

				fields := []struct {
					name      string
					got, want any
				}{
					{"Comp", got.Comp, want.Comp},
					{"NumComps", got.NumComps, want.NumComps},
					{"CompOff", got.CompOff, want.CompOff},
					{"CompVerts", got.CompVerts, want.CompVerts},
					{"Level", got.Level, want.Level},
					{"Levels", got.Levels, want.Levels},
					{"AdjOff", got.AdjOff, want.AdjOff},
					{"Adj", got.Adj, want.Adj},
				}
				for _, f := range fields {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s differs from the sort-based reference", f.name)
					}
				}
				if !reflect.DeepEqual(withoutTimings(got), seq) {
					t.Error("Result differs from the sequential decomposition")
				}
			})
		}
	}

	// The shapes must exercise what they are named for.
	if r := Decompose(graphs["pa-dag"], 1); r.NumComps != graphs["pa-dag"].NumNodes() {
		t.Errorf("pa-dag: %d components for %d vertices, want all singletons", r.NumComps, graphs["pa-dag"].NumNodes())
	}
	pc := graphs["parallel-cross-edges"]
	if r := Decompose(pc, 1); int64(len(r.Adj))*2 > pc.NumEdges()-int64(pc.NumNodes()) {
		t.Errorf("parallel-cross-edges: %d condensation edges from %d cross edges, want mostly duplicates",
			len(r.Adj), pc.NumEdges()-int64(pc.NumNodes()))
	}
}

// BenchmarkDecompose times the decomposition on its two extreme shapes: a
// preferential-attachment DAG (all singletons, every edge cross-component,
// so condensation dominates) and an R-MAT graph whose giant SCC holds about
// half the vertices and leaves few cross edges (partitioning dominates).
// partition_ms and condense_ms split each op.
func BenchmarkDecompose(b *testing.B) {
	shapes := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"pa-dag", func() *graph.Graph { return paDAG(b, 100000) }},
		{"rmat-giant", func() *graph.Graph {
			g, err := gen.RMAT(gen.Graph500RMAT(16, 16, 31), graph.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			g := s.build()
			var partition, condense float64
			for b.Loop() {
				r := Decompose(g, 0)
				partition += r.PartitionTime.Seconds() * 1e3
				condense += r.CondenseTime.Seconds() * 1e3
			}
			b.ReportMetric(partition/float64(b.N), "partition_ms")
			b.ReportMetric(condense/float64(b.N), "condense_ms")
		})
	}
}
