// Package scc computes the strongly-connected-component decomposition of a
// directed graph plus its condensation DAG, grouped into topological levels.
// It is the scheduling substrate of the componentwise PageRank solver
// (internal/comp), following Engström & Silvestrov ("Graph partitioning and
// a componentwise PageRank algorithm"): ranks of a component depend only on
// components upstream of it in the condensation, so a solver may freeze
// upstream ranks and solve components level by level.
//
// The decomposition is the Forward-Backward (FW-BW) algorithm with
// trimming (Fleischer, Hendrickson, Pınar 2000; McLendon et al. 2005),
// chosen over Tarjan because it parallelizes: a trim pass peels vertices
// that are trivially their own component (no in- or out-edges within the
// active subset, which dissolves the DAG-like bulk of web graphs), then one
// pivot's forward- and backward-reachable sets F and B are computed over
// the already-materialized CSR/CSC pair, F∩B is emitted as one component,
// and the three remainders F\B, B\F, and the untouched rest — which cannot
// share a component — recurse as independent subproblems scheduled across a
// bounded worker pool. Subproblems own disjoint vertex sets, so all scratch
// is written without synchronization beyond the task handoff.
//
// Component identifiers are deterministic regardless of scheduling: after
// the partition settles, components are renumbered level-major (topological
// level first, smallest member vertex second), so equal graphs always get
// equal Results.
package scc

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// Result is one completed decomposition. Component identifiers are dense in
// [0, NumComps) and topologically ordered: every edge u→v with
// Comp[u] != Comp[v] satisfies Comp[u] < Comp[v] (level-major numbering).
type Result struct {
	// Comp maps each vertex to its component.
	Comp []int32
	// NumComps is the number of strongly connected components.
	NumComps int
	// CompOff / CompVerts group vertices by component, CSR-style:
	// CompVerts[CompOff[c]:CompOff[c+1]] lists component c's members in
	// ascending vertex order.
	CompOff   []int64
	CompVerts []graph.NodeID
	// Level is each component's topological depth in the condensation: 0
	// for components with no upstream component, otherwise one more than
	// the deepest upstream component.
	Level []int32
	// Levels groups component ids by Level, in ascending id order. All
	// cross-component edges go from a lower level to a strictly higher one,
	// so components within one level are independent.
	Levels [][]int32
	// AdjOff / Adj are the condensation DAG's out-edges (deduplicated),
	// CSR-style over component ids.
	AdjOff []int64
	Adj    []int32
	// PartitionTime is the FW-BW decomposition proper; CondenseTime covers
	// building the DAG, the levels, and the deterministic renumbering. The
	// componentwise solver reports them as its decompose / schedule phases.
	PartitionTime time.Duration
	CondenseTime  time.Duration
}

// Size returns component c's vertex count.
func (r *Result) Size(c int32) int { return int(r.CompOff[c+1] - r.CompOff[c]) }

// Members returns component c's vertices in ascending order. The slice
// aliases internal storage and must not be modified.
func (r *Result) Members(c int32) []graph.NodeID {
	return r.CompVerts[r.CompOff[c]:r.CompOff[c+1]]
}

// Succ returns component c's out-neighbors in the condensation DAG
// (deduplicated, ascending). The slice aliases internal storage.
func (r *Result) Succ(c int32) []int32 { return r.Adj[r.AdjOff[c]:r.AdjOff[c+1]] }

// LargestComponent returns the size of the largest component (0 for an
// empty graph).
func (r *Result) LargestComponent() int {
	largest := 0
	for c := 0; c < r.NumComps; c++ {
		if s := r.Size(int32(c)); s > largest {
			largest = s
		}
	}
	return largest
}

// StatsFor is graph.ComputeStats plus the component summary fields
// (Components, LargestComponent) filled from an existing decomposition of
// g — the graph package cannot fill them itself without importing this
// one. Callers that still need the decomposition keep it; ComputeStats is
// the throwaway convenience form.
func StatsFor(g *graph.Graph, r *Result) graph.Stats {
	s := g.ComputeStats()
	s.Components = r.NumComps
	s.LargestComponent = r.LargestComponent()
	return s
}

// ComputeStats decomposes g and returns the annotated stats, discarding
// the decomposition. Prefer Decompose + StatsFor when the decomposition
// itself is also needed (the serving layer and the componentwise solver
// reuse it).
func ComputeStats(g *graph.Graph, workers int) graph.Stats {
	return StatsFor(g, Decompose(g, workers))
}

// task is one FW-BW subproblem: a set of vertices owned exclusively by the
// worker processing it, tagged with the id recorded in decomposer.sub.
type task struct {
	id    int32
	verts []graph.NodeID
}

// decomposer carries the shared state of one Decompose call. All vertex-
// indexed scratch (sub, mark, indeg, outdeg, comp) is only ever written by
// the task that currently owns the vertex, and tasks own disjoint sets, so
// workers need no locks — only the task counter and component counter are
// atomic, and the semaphore channel hands tasks across goroutines.
type decomposer struct {
	g *graph.Graph

	comp []int32 // provisional component ids, -1 until assigned
	// sub is the subproblem owning each vertex (-1 once assigned to a
	// component). It is the one cross-task array: tasks test neighbor
	// membership by comparing a neighbor's sub to their own id while the
	// neighbor's owner may be retagging it, so accesses are atomic. The
	// comparison can never spuriously match — task ids are unique and
	// never reused — so a stale read only ever reads "not mine".
	sub  []atomic.Int32
	mark []uint8 // FW-BW reachability bits: 1 = forward, 2 = backward

	indeg, outdeg []int32 // trim degrees within the active subset

	nextComp atomic.Int32
	nextTask atomic.Int32

	slots chan struct{} // bounds concurrently running workers
	wg    sync.WaitGroup
}

// Decompose computes the SCC decomposition of g using up to the given
// number of workers (0 means GOMAXPROCS).
func Decompose(g *graph.Graph, workers int) *Result {
	if g.NumNodes() == 0 {
		return &Result{Comp: []int32{}, CompOff: []int64{0}, AdjOff: []int64{0}}
	}
	start := time.Now()
	d := newDecomposer(g, workers)
	numProv := d.partition()
	partition := time.Since(start)

	res := d.condense(numProv)
	res.PartitionTime = partition
	res.CondenseTime = time.Since(start) - partition
	return res
}

func newDecomposer(g *graph.Graph, workers int) *decomposer {
	n := g.NumNodes()
	d := &decomposer{
		g:      g,
		comp:   make([]int32, n),
		sub:    make([]atomic.Int32, n),
		mark:   make([]uint8, n),
		indeg:  make([]int32, n),
		outdeg: make([]int32, n),
		slots:  make(chan struct{}, par.Workers(workers)),
	}
	for i := range d.comp {
		d.comp[i] = -1
	}
	return d
}

// partition fills d.comp with provisional component ids and returns how
// many it assigned.
func (d *decomposer) partition() int {
	if cap(d.slots) == 1 {
		// Sequential fast path (the worker bound is 1): one worker gains
		// nothing from FW-BW's divide-and-conquer (which re-scans each
		// subproblem's edges per split), so run iterative Tarjan — a
		// single O(V+E) pass. The deterministic renumbering in condense
		// makes both paths produce identical Results.
		d.tarjan()
	} else {
		root := task{id: 0, verts: make([]graph.NodeID, d.g.NumNodes())}
		for v := range root.verts {
			root.verts[v] = graph.NodeID(v)
		}
		d.nextTask.Store(1)
		d.spawn(root)
		d.wg.Wait()
	}
	return int(d.nextComp.Load())
}

// spawn hands t to a fresh worker goroutine if a slot is free, otherwise
// runs it on the calling goroutine (which already holds a slot — or is the
// root call, which counts as one).
func (d *decomposer) spawn(t task) {
	d.wg.Add(1)
	select {
	case d.slots <- struct{}{}:
		go func() {
			defer d.wg.Done()
			d.process(t)
			<-d.slots
		}()
	default:
		defer d.wg.Done()
		d.process(t)
	}
}

// process drains t and every subproblem it spawns that could not be handed
// off, using an explicit stack so chains of splits cannot overflow the
// goroutine stack.
func (d *decomposer) process(t task) {
	stack := []task{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		subs := d.step(cur)
		if len(subs) == 0 {
			continue
		}
		// Keep the largest subproblem local (it is the likely giant-SCC
		// carrier); offer the rest to idle workers.
		largest := 0
		for i, s := range subs {
			if len(s.verts) > len(subs[largest].verts) {
				largest = i
			}
		}
		for i, s := range subs {
			if i == largest {
				stack = append(stack, s)
				continue
			}
			select {
			case d.slots <- struct{}{}:
				d.wg.Add(1)
				go func(s task) {
					defer d.wg.Done()
					d.process(s)
					<-d.slots
				}(s)
			default:
				stack = append(stack, s)
			}
		}
	}
}

// step runs one trim + FW-BW split on t, assigns components for everything
// it settles, and returns the up-to-three remaining subproblems.
func (d *decomposer) step(t task) []task {
	g, sid := d.g, t.id

	// Trim: peel vertices with no in- or out-edges inside the subset
	// (ignoring self-loops, which never connect a vertex to anyone else).
	// Each peeled vertex is its own component. Trimming iterates to a fixed
	// point, which fully dissolves acyclic regions without recursion.
	for _, v := range t.verts {
		d.indeg[v], d.outdeg[v] = 0, 0
	}
	for _, v := range t.verts {
		for _, u := range g.OutNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				d.outdeg[v]++
				d.indeg[u]++
			}
		}
	}
	var queue []graph.NodeID
	for _, v := range t.verts {
		if d.indeg[v] == 0 || d.outdeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d.sub[v].Load() != sid {
			continue // peeled through its other zero degree already
		}
		d.sub[v].Store(-1)
		d.comp[v] = d.nextComp.Add(1) - 1
		for _, u := range g.OutNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				if d.indeg[u]--; d.indeg[u] == 0 {
					queue = append(queue, u)
				}
			}
		}
		for _, u := range g.InNeighbors(v) {
			if u != v && d.sub[u].Load() == sid {
				if d.outdeg[u]--; d.outdeg[u] == 0 {
					queue = append(queue, u)
				}
			}
		}
	}
	rem := t.verts[:0]
	for _, v := range t.verts {
		if d.sub[v].Load() == sid {
			rem = append(rem, v)
		}
	}
	if len(rem) == 0 {
		return nil
	}

	// Pivot: the busiest remaining vertex. Hubs sit in the giant component
	// of scale-free graphs, so this keeps the expensive F∩B round count low.
	pivot := rem[0]
	best := int32(-1)
	for _, v := range rem {
		if s := d.indeg[v] + d.outdeg[v]; s > best {
			best, pivot = s, v
		}
	}

	fwd := d.reach(pivot, sid, 1, g.OutNeighbors)
	bwd := d.reach(pivot, sid, 2, g.InNeighbors)

	// Split: F∩B is the pivot's component; F\B, B\F, and the untouched rest
	// are independent subproblems (no component spans two of them).
	cid := d.nextComp.Add(1) - 1
	var fOnly, bOnly []graph.NodeID
	for _, v := range fwd {
		if d.mark[v] == 3 {
			d.comp[v] = cid
			d.sub[v].Store(-1)
		} else {
			fOnly = append(fOnly, v)
		}
	}
	for _, v := range bwd {
		if d.mark[v] == 2 {
			bOnly = append(bOnly, v)
		}
	}
	var rest []graph.NodeID
	for _, v := range rem {
		if d.mark[v] == 0 {
			rest = append(rest, v)
		}
	}
	for _, v := range fwd {
		d.mark[v] = 0
	}
	for _, v := range bwd {
		d.mark[v] = 0
	}

	var subs []task
	for _, verts := range [][]graph.NodeID{fOnly, bOnly, rest} {
		if len(verts) == 0 {
			continue
		}
		nid := d.nextTask.Add(1) - 1
		for _, v := range verts {
			d.sub[v].Store(nid)
		}
		subs = append(subs, task{id: nid, verts: verts})
	}
	return subs
}

// reach marks every vertex reachable from start within subproblem sid via
// the given neighbor accessor, OR-ing bit into mark, and returns the
// visited set.
func (d *decomposer) reach(start graph.NodeID, sid int32, bit uint8, nbrs func(graph.NodeID) []graph.NodeID) []graph.NodeID {
	visited := []graph.NodeID{start}
	d.mark[start] |= bit
	for frontier := 0; frontier < len(visited); frontier++ {
		v := visited[frontier]
		for _, u := range nbrs(v) {
			if d.sub[u].Load() == sid && d.mark[u]&bit == 0 {
				d.mark[u] |= bit
				visited = append(visited, u)
			}
		}
	}
	return visited
}

// tarjan is the sequential decomposition: iterative Tarjan with an explicit
// frame stack, writing provisional component ids into d.comp. It reuses the
// FW-BW scratch arrays (indeg as the DFS index, outdeg as lowlink, mark as
// the on-stack flag), so the sequential path allocates nothing extra.
func (d *decomposer) tarjan() {
	g, n := d.g, d.g.NumNodes()
	const undef = int32(-1)
	index, low, onStack := d.indeg, d.outdeg, d.mark
	for i := range index {
		index[i] = undef
	}
	var next int32
	var stack []graph.NodeID
	type frame struct {
		v  graph.NodeID
		ei int64
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		call = append(call[:0], frame{v: graph.NodeID(root)})
		index[root], low[root] = next, next
		next++
		stack = append(stack, graph.NodeID(root))
		onStack[root] = 1
		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.OutNeighbors(f.v)
			if f.ei < int64(len(adj)) {
				u := adj[f.ei]
				f.ei++
				if index[u] == undef {
					index[u], low[u] = next, next
					next++
					stack = append(stack, u)
					onStack[u] = 1
					call = append(call, frame{v: u})
				} else if onStack[u] == 1 && index[u] < low[f.v] {
					low[f.v] = index[u]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				cid := d.nextComp.Add(1) - 1
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = 0
					d.comp[w] = cid
					if w == v {
						break
					}
				}
			}
		}
	}
}

// condense builds the deduplicated condensation DAG over the provisional
// component ids, computes topological levels (longest path from a source),
// renumbers components level-major with smallest-member tie-break so the
// result is schedule-independent, and assembles the Result. Every step is a
// counting pass, so the whole build is O(V+E) with no comparison sort:
// cross-component edges are binned by source component (count, then fill)
// and each bin is deduplicated with a per-target stamp; the renumbering is
// a stable counting sort by level of the components in smallest-member
// order (first occurrence in an ascending vertex scan); and the final
// adjacency gets ascending rows from a double transpose.
func (d *decomposer) condense(numProv int) *Result {
	g, n, comp := d.g, d.g.NumNodes(), d.comp

	// Bin cross-component edges by source component: count, then fill.
	off := make([]int64, numProv+1)
	for v := 0; v < n; v++ {
		cu := comp[v]
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			if comp[u] != cu {
				off[cu+1]++
			}
		}
	}
	for c := 0; c < numProv; c++ {
		off[c+1] += off[c]
	}
	adj := make([]int32, off[numProv])
	cur := make([]int64, numProv)
	copy(cur, off)
	for v := 0; v < n; v++ {
		cu := comp[v]
		for _, u := range g.OutNeighbors(graph.NodeID(v)) {
			if cv := comp[u]; cv != cu {
				adj[cur[cu]] = cv
				cur[cu]++
			}
		}
	}

	// Deduplicate each bin in place: stamp[t] is the last source that kept
	// an edge to t. Rows only shrink, so writes never overtake reads.
	stamp := make([]int32, numProv)
	for c := range stamp {
		stamp[c] = -1
	}
	kept := int64(0)
	for c := 0; c < numProv; c++ {
		lo, hi := off[c], off[c+1]
		off[c] = kept
		for _, t := range adj[lo:hi] {
			if stamp[t] != int32(c) {
				stamp[t] = int32(c)
				adj[kept] = t
				kept++
			}
		}
	}
	off[numProv] = kept
	adj = adj[:kept]

	// Longest-path levels via Kahn's algorithm over the provisional DAG.
	provLevel := make([]int32, numProv)
	indeg := stamp // stamps are spent; reuse the array
	for c := range indeg {
		indeg[c] = 0
	}
	for _, t := range adj {
		indeg[t]++
	}
	queue := make([]int32, 0, numProv)
	for c := int32(0); c < int32(numProv); c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	maxLevel := int32(0)
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		if provLevel[c] > maxLevel {
			maxLevel = provLevel[c]
		}
		for _, t := range adj[off[c]:off[c+1]] {
			if l := provLevel[c] + 1; l > provLevel[t] {
				provLevel[t] = l
			}
			if indeg[t]--; indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}

	// Deterministic renumbering: (level, smallest member vertex), as a
	// stable counting sort by level over the components in smallest-member
	// order — the order an ascending vertex scan first meets them in.
	levelOff := make([]int32, maxLevel+2)
	for _, l := range provLevel {
		levelOff[l+1]++
	}
	for l := int32(0); l <= maxLevel; l++ {
		levelOff[l+1] += levelOff[l]
	}
	levelCur := make([]int32, maxLevel+1)
	copy(levelCur, levelOff)
	perm := make([]int32, numProv) // provisional -> final
	for c := range perm {
		perm[c] = -1
	}
	for v := 0; v < n; v++ {
		if c := comp[v]; perm[c] < 0 {
			l := provLevel[c]
			perm[c] = levelCur[l]
			levelCur[l]++
		}
	}

	res := &Result{
		Comp:     comp, // renumbered in place below
		NumComps: numProv,
		Level:    make([]int32, numProv),
		Levels:   make([][]int32, maxLevel+1),
	}
	for c, l := range provLevel {
		res.Level[perm[c]] = l
	}
	ids := make([]int32, numProv)
	for c := range ids {
		ids[c] = int32(c)
	}
	for l := range res.Levels {
		lo, hi := levelOff[l], levelOff[l+1]
		res.Levels[l] = ids[lo:hi:hi]
	}
	for v := 0; v < n; v++ {
		comp[v] = perm[comp[v]]
	}

	// Member lists via counting sort (ascending vertex order per component).
	res.CompOff = make([]int64, numProv+1)
	for v := 0; v < n; v++ {
		res.CompOff[comp[v]+1]++
	}
	for c := 0; c < numProv; c++ {
		res.CompOff[c+1] += res.CompOff[c]
	}
	res.CompVerts = make([]graph.NodeID, n)
	copy(cur, res.CompOff)
	for v := 0; v < n; v++ {
		c := comp[v]
		res.CompVerts[cur[c]] = graph.NodeID(v)
		cur[c]++
	}

	// Condensation adjacency under the final numbering, rows ascending: the
	// first transpose groups each edge's final source under its final
	// target; the second walks targets in ascending order and appends each
	// one to its sources' rows.
	inOff := make([]int64, numProv+1)
	for _, t := range adj {
		inOff[perm[t]+1]++
	}
	for c := 0; c < numProv; c++ {
		inOff[c+1] += inOff[c]
	}
	in := make([]int32, kept)
	copy(cur, inOff)
	res.AdjOff = make([]int64, numProv+1)
	for c := 0; c < numProv; c++ {
		s := perm[c]
		res.AdjOff[s+1] = off[c+1] - off[c]
		for _, t := range adj[off[c]:off[c+1]] {
			ft := perm[t]
			in[cur[ft]] = s
			cur[ft]++
		}
	}
	for c := 0; c < numProv; c++ {
		res.AdjOff[c+1] += res.AdjOff[c]
	}
	res.Adj = make([]int32, kept)
	copy(cur, res.AdjOff)
	for t := 0; t < numProv; t++ {
		for _, s := range in[inOff[t]:inOff[t+1]] {
			res.Adj[cur[s]] = int32(t)
			cur[s]++
		}
	}
	return res
}
