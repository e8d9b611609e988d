package main

import (
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/scc"
	"repro/internal/serve"
)

const (
	// readCapacity is the read throughput measured beside the writer: two
	// closed-loop clients sending this workload's read mix while the writer
	// ran, 16.6k-18.3k reads/s (median 18.1k) over seeds 101-103 on a 2-core
	// VM (see README.md).
	readCapacity = 18000
	// readRate is the open-loop arrival rate of the reads, a tenth of
	// readCapacity: far enough from saturation that read latency is service
	// time, not queueing, while the reads still take a share of the CPU from
	// the writer.
	readRate = readCapacity / 10
	// writePeriod spaces the writer's mutate operations (an insert request,
	// then the delete of the same edges). It leaves the parent's writer
	// idle part of every period, so it keeps up with no backlog.
	writePeriod = 2 * time.Second
	// driftSlack covers the convergence error of the two solves compared
	// by the served-ranks check, on top of the repair drift budget.
	driftSlack = 1e-5
)

type deltaReply struct {
	Mode string `json:"mode"`
}

// timed is one open-loop request: latency from when it was due, and how
// late the generator sent it.
type timed struct {
	latMS, lateMS float64
	err           error
}

// runServeWrites is serve-writes: a durable server taking open-loop reads
// from independent users beside one open-loop writer of edge deltas.
func runServeWrites(e *env) (*outcome, error) {
	o := newOutcome()
	path, err := e.input(paKey(e.seed))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "run", "serve-writes")
	var srv *serve.Server
	var g *graph.Graph
	var setups []float64
	var mem memPeaks
	for i := 0; i < e.setups(serveSetups); i++ {
		if srv != nil {
			if err := srv.CloseDurable(); err != nil {
				return nil, err
			}
		}
		srv, g = nil, nil
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := mem.begin(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, g, err = ingest(e, path, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		o.attempted++
		if err := mem.endSetup(); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(dir)
	defer srv.CloseDurable()
	t, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer t.close()
	n := g.NumNodes()
	// The reads run through the window and the last write; a schedule a
	// little longer than that wraps around if the writer runs late.
	def := loadgen.DefaultMix()
	reads, err := schedule(t.base, e.seed, n, int((max(1, e.window.Seconds())+10)*readRate),
		loadgen.Mix{TopK: def.TopK, Rank: def.Rank})
	if err != nil {
		return nil, err
	}
	writes := mutateBatches(e.seed, n, 100)
	walBefore, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	var (
		readRes, writeRes []timed
		modes             []string
		wg                sync.WaitGroup
		writerDone        = make(chan struct{})
	)
	if err := mem.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	wg.Add(2)
	go func() { // the writer: mutate ops due every writePeriod within the window
		defer wg.Done()
		defer close(writerDone)
		for k := 0; time.Duration(k)*writePeriod < e.window && k < len(writes); k++ {
			due := start.Add(time.Duration(k) * writePeriod)
			time.Sleep(time.Until(due))
			pairs := writes[k]
			for _, kind := range []string{"insert", "delete"} {
				j := len(writeRes)
				sent := time.Now()
				var reply deltaReply
				ot := e.opTracer(j)
				sp := ot.start("serve.http_edges", 0, int64(k+1))
				err := t.call("POST", "/v1/graphs/"+graphName+"/edges", map[string]any{kind: pairs}, &reply)
				ot.end(sp)
				done := time.Now()
				if err == nil {
					o.sample(e, j, millis(done.Sub(due)))
				}
				writeRes = append(writeRes, timed{millis(done.Sub(due)), millis(sent.Sub(due)), err})
				modes = append(modes, reply.Mode)
				due = done
			}
		}
	}()
	go func() { // the users: reads due every 1/readRate through the window and the last write
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / readRate)
			if due.Sub(start) >= e.window {
				select {
				case <-writerDone:
					return
				default:
				}
			}
			time.Sleep(time.Until(due))
			sent := time.Now()
			op := reads[i%len(reads)]
			p := fmt.Sprintf("/v1/graphs/%s/topk?k=%d", graphName, topK)
			if op.Kind == loadgen.OpRank {
				p = fmt.Sprintf("/v1/graphs/%s/rank/%d", graphName, op.Node)
			}
			// Reads take negative request ids, the writer's batches positive.
			sp := e.tr.start("serve.http_"+string(op.Kind), 0, int64(-i-1))
			err := t.call("GET", p, nil, nil)
			e.tr.end(sp)
			readRes = append(readRes, timed{millis(time.Since(due)), millis(sent.Sub(due)), err})
		}
	}()
	wg.Wait()

	readLat, lates, rfail := split(readRes)
	writeLat, _, wfail := split(writeRes)
	o.attempted += len(readRes) + len(writeRes)
	o.failed += rfail + wfail
	if len(readLat) == 0 || len(writeLat) == 0 {
		return nil, fmt.Errorf("no read or no write completed")
	}
	// Peak memory is read before the output check solves the graph afresh
	// and the header's PNG is built.
	rss, err := mem.result(o)
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = metric{rss, "MB"}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["op_ms"] = metric{quantile(writeLat, 0.5), "ms"}
	o.note("setup_s: median of %d durable ingests", len(setups))
	// Read latency is reported, not gated: p50 is sub-millisecond HTTP
	// time, and p99 sits at the knee where reads start to meet writes, so
	// it moved between 3 and 11 ms across runs (see README.md).
	o.note("reads: %d open-loop at %d/s over %d samples: p50 %.3f ms, p99 %.3f ms (not e2e metrics)",
		len(readRes), readRate, len(readLat), quantile(readLat, 0.5), quantile(readLat, 0.99))
	o.note("writes: %d edge-delta requests, p50 over %d samples; generator lateness p99 %.3f ms",
		len(writeRes), len(writeLat), quantile(lates, 0.99))

	// Checks: each insert was followed by the delete of the same edges, so
	// the edge count is conserved; served ranks stay within the repair drift
	// budget of a fresh solve on the served structure.
	info, err := srv.Info(graphName)
	if err != nil {
		return nil, err
	}
	if info.Edges != g.NumEdges() {
		o.fail(fmt.Errorf("edge count %d after the writes, want %d", info.Edges, g.NumEdges()))
	}
	_, snap, err := srv.TopK(graphName, 1)
	if err != nil {
		return nil, err
	}
	fresh, err := pcpm.Run(snap.Graph, pcpm.Options{Tolerance: 1e-9, MaxIterations: 2000, Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	l1 := core.L1Diff(snap.Ranks, fresh.Ranks)
	if l1 > snap.RepairDrift+driftSlack {
		o.fail(fmt.Errorf("served ranks %.3g L1 from a fresh solve, drift budget %.3g", l1, snap.RepairDrift))
	}
	o.note("check: edges conserved (%d); served ranks %.3g L1 from a fresh solve (drift %.3g + slack %g)",
		info.Edges, l1, snap.RepairDrift, driftSlack)
	o.sizes = graphSizes("serve-writes", g, pngOf(g))

	if e.tr != nil {
		walAfter, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		incremental := 0
		for _, m := range modes {
			if m == "incremental" {
				incremental++
			}
		}
		o.layer["delta.incremental_ratio"] = metric{float64(incremental) / float64(len(modes)), "ratio"}
		o.layer["wal.bytes_per_write"] = metric{float64(walAfter-walBefore) / float64(len(writeRes)), "B"}
		o.layer["bench.late_p99_ms"] = metric{quantile(lates, 0.99), "ms"}
		if err := writeLayers(e, o, srv, snap, writes[len(writes)-3:]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func split(rs []timed) (lat, late []float64, failed int) {
	for _, r := range rs {
		if r.err != nil {
			failed++
			continue
		}
		lat = append(lat, r.latMS)
		late = append(late, r.lateMS)
	}
	return lat, late, failed
}

// mutateBatches draws the writer's batches the way loadgen shapes mutate
// operations, 1-4 edges inserted and then deleted, but with uniform rather
// than Zipf endpoints. A Zipf draw makes hubs the source of about 30% of
// batches, and those take the recompute fallback at 3x the latency; with
// four batches a run, how many fell back decided the p50 (see README.md).
func mutateBatches(seed uint64, nodes, count int) [][][2]uint32 {
	r := rand.New(rand.NewPCG(seed, 0x6d757461))
	out := make([][][2]uint32, count)
	for i := range out {
		out[i] = make([][2]uint32, 1+r.IntN(4))
		for j := range out[i] {
			out[i][j] = [2]uint32{uint32(r.IntN(nodes)), uint32(r.IntN(nodes))}
		}
	}
	return out
}

func edgesOf(pairs [][2]uint32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{Src: p[0], Dst: p[1], W: 1}
	}
	return out
}

// writeLayers times the layers a write passes through, each called
// directly: SCC decomposition, delta.Apply, the server's delta path, the
// top-k and rank reads, and a full recompute.
func writeLayers(e *env, o *outcome, srv *serve.Server, snap *serve.Snapshot, batches [][][2]uint32) error {
	g := snap.Graph
	var sccMS []float64
	var dec *scc.Result
	for i := 0; i < 3; i++ {
		sp := e.tr.start("scc.decompose", 0, 0)
		t0 := time.Now()
		dec = scc.Decompose(g, engineWorkers)
		sccMS = append(sccMS, millis(time.Since(t0)))
		e.tr.end(sp)
	}
	o.layer["scc.decompose_ms"] = metric{median(sccMS), "ms"}

	var applyMS, rebuildMS, repairMS, rounds []float64
	for _, b := range batches {
		cur, ranks, comps := g, snap.Ranks, dec
		for _, d := range []delta.EdgeDelta{{Insert: edgesOf(b)}, {Delete: edgesOf(b)}} {
			sp := e.tr.start("delta.apply", 0, 0)
			t0 := time.Now()
			r, err := delta.Apply(cur, ranks, d, delta.Options{Damping: damping, Components: comps})
			applyMS = append(applyMS, millis(time.Since(t0)))
			e.tr.end(sp)
			if err != nil {
				return err
			}
			rebuildMS = append(rebuildMS, millis(r.RebuildTime))
			cur, ranks, comps = r.Graph, r.Ranks, nil
			if r.FellBack { // the server would recompute; so does the benchmark, untimed
				res, err := pcpm.Run(cur, serveOptions())
				if err != nil {
					return err
				}
				ranks = res.Ranks
				continue
			}
			repairMS = append(repairMS, millis(r.RepairTime))
			rounds = append(rounds, float64(r.Rounds))
		}
	}
	o.layer["delta.apply_ms"] = metric{median(applyMS), "ms"}
	o.layer["delta.rebuild_ms"] = metric{median(rebuildMS), "ms"}
	if len(repairMS) == 0 {
		return fmt.Errorf("every direct delta.Apply fell back")
	}
	o.layer["delta.repair_ms"] = metric{median(repairMS), "ms"}
	o.layer["delta.repair_rounds"] = metric{mean(rounds), "count"}

	var serveMS []float64
	for _, b := range batches {
		for _, d := range []delta.EdgeDelta{{Insert: edgesOf(b)}, {Delete: edgesOf(b)}} {
			sp := e.tr.start("serve.apply_edge_delta", 0, 0)
			t0 := time.Now()
			_, err := srv.ApplyEdgeDelta(graphName, d)
			serveMS = append(serveMS, millis(time.Since(t0)))
			e.tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	o.layer["serve.delta_ms"] = metric{median(serveMS), "ms"}

	const reads = 2000
	var topkUS, rankUS []float64
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		_, _, err := srv.TopK(graphName, topK)
		topkUS = append(topkUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, _, err = srv.Rank(graphName, uint32(i*7919)%uint32(g.NumNodes()))
		rankUS = append(rankUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	o.layer["serve.topk_us"] = metric{median(topkUS), "us"}
	o.layer["serve.rank_us"] = metric{median(rankUS), "us"}

	sp := e.tr.start("core.recompute", 0, 0)
	t0 := time.Now()
	_, err := pcpm.Run(g, serveOptions())
	o.layer["core.recompute_s"] = metric{seconds(time.Since(t0)), "s"}
	e.tr.end(sp)
	return err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
