package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pcpm "repro"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/ppr"
	"repro/internal/serve"
)

const (
	graphName = "g"
	topK      = 10
	// clients is the client goroutine and connection count of a closed
	// loop: one per core.
	clients = 2
	// pprOpsPerSecond sizes serve-ppr's schedule per second of window, at
	// about six times the rate the closed loop reaches; the clients wrap
	// around to its start if they ever use it up.
	pprOpsPerSecond = 4000
	// serveSetups is the set-up count of the serving workloads; an ingest
	// takes under a second, so the median can use more of them.
	serveSetups = 7
)

// serveOptions are the engine options every served graph is ingested
// with: converged ranks, so output checks can compare against fresh runs.
func serveOptions() pcpm.Options {
	return pcpm.Options{Tolerance: tolerance, Workers: engineWorkers}
}

// ingest is the serving set-up: load the cached graph and register it on a
// new server, which computes its first ranks. dataDir empty means memory-only.
func ingest(e *env, path, dataDir string) (*serve.Server, *graph.Graph, error) {
	root := e.tr.start("bench.setup", 0, 0)
	defer e.tr.end(root)
	sp := e.tr.start("graph.read_binary", root, 0)
	g, err := loadGraph(path)
	e.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{DataDir: dataDir, Defaults: serveOptions()})
	if dataDir != "" {
		sp = e.tr.start("serve.recover", root, 0)
		_, err = srv.Recover()
		e.tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	sp = e.tr.start("serve.add_graph", root, 0)
	_, err = srv.AddGraph(graphName, g, serveOptions(), false)
	e.tr.end(sp)
	return srv, g, err
}

// target is an in-process HTTP front for a server, with a client limited
// to the closed loop's connection count.
type target struct {
	base   string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
}

func listen(h http.Handler) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
		}},
	}
	go func() {
		defer close(t.done)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return t, nil
}

func (t *target) close() {
	t.client.CloseIdleConnections()
	t.hs.Close()
	<-t.done
}

// call sends one request and decodes a 200 answer into out.
func (t *target) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func schedule(base string, seed uint64, nodes, ops int, mix loadgen.Mix) ([]loadgen.Op, error) {
	return loadgen.Schedule(loadgen.Config{BaseURL: base, Graph: graphName, Seed: seed, Ops: ops, Nodes: nodes, K: topK, Mix: mix})
}

type pprReply struct {
	Result  *serve.PPRAnswer  `json:"result"`
	Results []serve.PPRAnswer `json:"results"`
}

func (r pprReply) answers() []serve.PPRAnswer {
	if r.Result != nil {
		return []serve.PPRAnswer{*r.Result}
	}
	return r.Results
}

func pprBody(op loadgen.Op) map[string]any {
	if op.Kind == loadgen.OpPPR {
		return map[string]any{"seeds": op.Seeds[0], "k": topK}
	}
	return map[string]any{"batch": op.Seeds, "k": topK}
}

// runServePPR is serve-ppr: a closed loop of two clients sending
// Zipf-seeded single and batch personalized queries over HTTP.
func runServePPR(e *env) (*outcome, error) {
	o := newOutcome()
	path, err := e.input(paKey(e.seed))
	if err != nil {
		return nil, err
	}
	var srv *serve.Server
	var g *graph.Graph
	var setups []float64
	var mem memPeaks
	for i := 0; i < e.setups(serveSetups); i++ {
		srv, g = nil, nil
		if err := mem.begin(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, g, err = ingest(e, path, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		o.attempted++
		if err := mem.endSetup(); err != nil {
			return nil, err
		}
	}
	t, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer t.close()
	def := loadgen.DefaultMix()
	ops, err := schedule(t.base, e.seed, g.NumNodes(), int(max(1, e.window.Seconds())*pprOpsPerSecond),
		loadgen.Mix{PPR: def.PPR, PPRBatch: def.PPRBatch})
	if err != nil {
		return nil, err
	}

	type sample struct {
		op  loadgen.Op
		ans []serve.PPRAnswer
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		lat      []float64
		answered int
		hits     int // answers served from the LRU
		checks   []sample
		failures int
		firstErr error
		wg       sync.WaitGroup
	)
	if err := mem.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	var last time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < e.window {
				i := int(next.Add(1) - 1)
				op := ops[i%len(ops)]
				var reply pprReply
				ot := e.opTracer(i)
				sp := ot.start("serve.http_ppr", 0, int64(i+1))
				t0 := time.Now()
				err := t.call("POST", "/v1/graphs/"+graphName+"/ppr", pprBody(op), &reply)
				done := time.Now()
				ot.end(sp)
				mu.Lock()
				if err != nil {
					failures++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					lat = append(lat, millis(done.Sub(t0)))
					o.sample(e, i, millis(done.Sub(t0)))
					for _, a := range reply.answers() {
						answered++
						if a.Cached {
							hits++
						}
					}
					if op.Kind == loadgen.OpPPR && len(checks) < 2 {
						checks = append(checks, sample{op, reply.answers()})
					}
				}
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := last.Sub(start)
	o.attempted += len(lat) + failures
	o.failed += failures
	if firstErr != nil {
		o.note("first failed read: %v", firstErr)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no read completed: %v", firstErr)
	}
	// Peak memory is read before the output checks and the header's PNG
	// allocate their own arrays.
	rss, err := mem.result(o)
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = metric{rss, "MB"}
	n := len(lat)
	o.e2e["setup_s"] = metric{median(setups), "s"}
	// The mean, not the p50: the p50 follows the host's speed more strongly
	// (see README.md). In the closed loop it is the client count over the
	// throughput.
	o.e2e["op_ms"] = metric{mean(lat), "ms"}
	o.note("setup_s: median of %d ingests", len(setups))
	o.note("reads: %d completed in %.2f s by %d closed-loop clients (%.1f/s); op_ms is their mean; p50 %.3f ms, p99 %.3f ms (not e2e metrics)",
		n, elapsed.Seconds(), clients, float64(n)/elapsed.Seconds(), quantile(lat, 0.5), quantile(lat, 0.99))

	for _, s := range checks {
		if err := checkPPR(g, s.op.Seeds[0], s.ans[0]); err != nil {
			o.fail(err)
		}
	}
	o.note("check: %d sampled answers against ppr.PowerIteration", len(checks))
	o.sizes = graphSizes("serve-ppr", g, pngOf(g))
	if len(checks) == 0 {
		o.fail(fmt.Errorf("no single-seed answer to check"))
	}

	if e.tr != nil {
		o.layer["serve.ppr_hit_ratio"] = metric{float64(hits) / float64(answered), "ratio"}
		if err := pprLayers(e, o, srv, g, ops); err != nil {
			return nil, err
		}
		if err := httpOverhead(e, o, srv, t); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkPPR compares a served answer with the float64 power-iteration
// reference: every returned score within the answer's own residual bound,
// and no node left out that beats the lowest returned score by more.
func checkPPR(g *graph.Graph, seeds []uint32, a serve.PPRAnswer) error {
	canon, err := ppr.CanonicalSeeds(g.NumNodes(), seeds)
	if err != nil {
		return err
	}
	exact, err := ppr.PowerIteration(g, canon, damping, 1e-11, 10000)
	if err != nil {
		return err
	}
	tol := a.ResidualL1 + 1e-9
	if a.Truncated || len(a.Top) == 0 {
		return fmt.Errorf("ppr %v: truncated or empty answer", seeds)
	}
	low := math.Inf(1)
	for _, s := range a.Top {
		if d := math.Abs(s.Score - exact[s.Node]); d > tol {
			return fmt.Errorf("ppr %v: node %d score %g, reference %g", seeds, s.Node, s.Score, exact[s.Node])
		}
		low = min(low, s.Score)
	}
	sorted := append([]float64(nil), exact...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if kth := sorted[len(a.Top)-1]; kth > low+2*tol {
		return fmt.Errorf("ppr %v: reference %d-th score %g beats lowest served %g", seeds, len(a.Top), kth, low)
	}
	return nil
}

// pprLayers times the PPR engine and the serving path directly on the
// schedule's first queries.
func pprLayers(e *env, o *outcome, srv *serve.Server, g *graph.Graph, ops []loadgen.Op) error {
	const queries = 40
	eng, err := ppr.New(g, ppr.EngineOptions{Workers: engineWorkers})
	if err != nil {
		return err
	}
	var runMS, pushes, rounds []float64
	for i := 0; len(runMS) < queries && i < len(ops); i++ {
		for _, seeds := range ops[i].Seeds {
			canon, err := ppr.CanonicalSeeds(g.NumNodes(), seeds)
			if err != nil {
				return err
			}
			sp := e.tr.start("ppr.run", 0, 0)
			r, err := eng.Run(canon, ppr.RunOptions{Damping: damping, TopK: topK, TopOnly: true})
			e.tr.end(sp)
			if err != nil {
				return err
			}
			runMS = append(runMS, millis(r.Duration))
			pushes = append(pushes, float64(r.Pushes))
			rounds = append(rounds, float64(r.Rounds))
		}
	}
	o.layer["ppr.run_ms"] = metric{median(runMS), "ms"}
	o.layer["ppr.pushes_per_query"] = metric{mean(pushes), "count"}
	o.layer["ppr.rounds_per_query"] = metric{mean(rounds), "count"}

	var serveMS []float64
	for i := 0; i < queries && i < len(ops); i++ {
		sp := e.tr.start("serve.personalized", 0, 0)
		t0 := time.Now()
		_, err := srv.Personalized(graphName, ops[i].Seeds, topK, 0)
		serveMS = append(serveMS, millis(time.Since(t0)))
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	o.layer["serve.ppr_ms"] = metric{median(serveMS), "ms"}
	return nil
}

// httpOverhead is the p50 of HTTP top-k reads minus the p50 of the same
// reads made directly on the server.
func httpOverhead(e *env, o *outcome, srv *serve.Server, t *target) error {
	const reads = 300
	var viaHTTP, direct []float64
	for i := 0; i < reads; i++ {
		sp := e.tr.start("serve.http_topk", 0, 0)
		t0 := time.Now()
		err := t.call("GET", fmt.Sprintf("/v1/graphs/%s/topk?k=%d", graphName, topK), nil, nil)
		viaHTTP = append(viaHTTP, millis(time.Since(t0)))
		e.tr.end(sp)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, _, err = srv.TopK(graphName, topK)
		direct = append(direct, millis(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	o.layer["serve.http_overhead_ms"] = metric{median(viaHTTP) - median(direct), "ms"}
	return nil
}
