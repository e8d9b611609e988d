package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

const (
	// tolerance is the L1 rank change at which a solve counts as done.
	tolerance = 1e-7
	damping   = 0.85
	// engineWorkers matches the host's two cores.
	engineWorkers = 2
	// residualLimit bounds ||T(r) - r||_1 for converged ranks: the last
	// step moved them by under 1e-7, and the limit leaves 10x room for the
	// engine's float32 sums.
	residualLimit = 1e-6
)

// runKernel is kernel-rmat21: a batch PCPM solve on the R-MAT scale-21
// graph, whose rank vector is 4x the per-core L2.
func runKernel(e *env) (*outcome, error) {
	o := newOutcome()
	path, err := e.input(rmatKey(e.seed))
	if err != nil {
		return nil, err
	}
	var (
		g                     *graph.Graph
		eng                   *core.PCPM
		setups, loads, builds []float64
		mem                   memPeaks
	)
	for i := 0; i < e.setups(3); i++ {
		g, eng = nil, nil
		if err := mem.begin(); err != nil {
			return nil, err
		}
		root := e.tr.start("bench.setup", 0, 0)
		t0 := time.Now()
		sp := e.tr.start("graph.read_binary", root, 0)
		g, err = loadGraph(path)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp = e.tr.start("png.build", root, 0)
		eng, err = core.NewPCPM(g, core.Config{Workers: engineWorkers})
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		e.tr.end(root)
		loads = append(loads, seconds(t1.Sub(t0)))
		builds = append(builds, seconds(eng.PreprocessTime()))
		o.attempted++
		if err := mem.endSetup(); err != nil {
			return nil, err
		}
	}
	o.sizes = graphSizes("kernel-rmat21", g, eng.PNG())

	var solves []float64
	var iters int
	var phases core.PhaseStats
	if err := mem.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(solves) < e.minOps() || time.Since(start) < e.window {
		eng.Reset()
		ot := e.opTracer(len(solves))
		sp := ot.start("core.solve", 0, 0)
		t0 := time.Now()
		it, delta := core.RunToConvergence(eng, tolerance, 1000)
		s := seconds(time.Since(t0))
		ot.end(sp)
		o.sample(e, len(solves), 1e3*s)
		solves = append(solves, s)
		o.attempted++
		if delta >= tolerance {
			o.failed++
			o.fail(fmt.Errorf("solve stopped at L1 change %g after %d iterations", delta, it))
		}
		iters, phases = it, eng.Stats()
	}
	// Peak memory is read before the output check allocates its own arrays.
	rss, err := mem.result(o)
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = metric{rss, "MB"}
	ranks := eng.Ranks()
	res := pullResidual(g, ranks)
	if res > residualLimit || math.IsNaN(res) {
		o.fail(fmt.Errorf("pull residual %g exceeds %g", res, residualLimit))
	}
	o.note("setup_s: median of %d set-ups (load %.3f s, PNG build %.3f s)", len(setups), median(loads), median(builds))
	o.note("op_ms: median of %d solves, %d iterations each", len(solves), iters)
	o.note("check: independent pull residual ||T(r)-r||_1 = %.3g (limit %g)", res, residualLimit)
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["op_ms"] = metric{1e3 * median(solves), "ms"}

	if e.tr != nil {
		per := phases.PerIteration()
		cr := eng.CompressionRatio()
		n, m := float64(g.NumNodes()), float64(g.NumEdges())
		comm := model.PCPMComm(model.Params{N: n, M: m, K: float64(eng.Layout().K()), R: cr})
		o.layer["graph.read_binary_s"] = metric{median(loads), "s"}
		o.layer["png.build_s"] = metric{median(builds), "s"}
		o.layer["png.compression_ratio"] = metric{cr, "ratio"}
		o.layer["core.iterations"] = metric{float64(iters), "count"}
		o.layer["core.scatter_ms"] = metric{millis(per.Scatter), "ms"}
		o.layer["core.gather_ms"] = metric{millis(per.Gather), "ms"}
		o.layer["core.bytes_per_edge_computed"] = metric{comm / m, "B/edge"}
		eng = nil
		freeMemory()
		ms, err := referenceIterations(e, g)
		if err != nil {
			return nil, err
		}
		o.layer["core.pdpr_iter_ms"] = metric{ms[0], "ms"}
		o.layer["core.iter_ms_1w"] = metric{ms[1], "ms"}
	}
	return o, nil
}

// referenceIterations times Algorithm 1 (pull) at the kernel's worker count
// and PCPM at one worker, per iteration, on g.
func referenceIterations(e *env, g *graph.Graph) ([2]float64, error) {
	const iters = 5
	var out [2]float64
	pull, err := core.NewPDPR(g, core.Config{Workers: engineWorkers})
	if err != nil {
		return out, err
	}
	sp := e.tr.start("core.pdpr_iterations", 0, 0)
	out[0] = millis(core.RunIterations(pull, iters).PerIteration().Total)
	e.tr.end(sp)
	pull = nil
	freeMemory()
	one, err := core.NewPCPM(g, core.Config{Workers: 1})
	if err != nil {
		return out, err
	}
	sp = e.tr.start("core.pcpm_iterations_1w", 0, 0)
	out[1] = millis(core.RunIterations(one, iters).PerIteration().Total)
	e.tr.end(sp)
	return out, nil
}

// pullResidual applies one pull iteration of eq. 1 to r in float64, with
// the benchmark's own loop over the CSC, and returns ||T(r) - r||_1.
func pullResidual(g *graph.Graph, r []float32) float64 {
	n := g.NumNodes()
	off, adj := g.InOffsets(), g.InAdjacency()
	scaled := make([]float64, n)
	for u := 0; u < n; u++ {
		if d := g.OutDegree(graph.NodeID(u)); d > 0 {
			scaled[u] = float64(r[u]) / float64(d)
		}
	}
	base := (1 - damping) / float64(n)
	var l1 float64
	for v := 0; v < n; v++ {
		var s float64
		for _, u := range adj[off[v]:off[v+1]] {
			s += scaled[u]
		}
		l1 += math.Abs(base + damping*s - float64(r[v]))
	}
	return l1
}
