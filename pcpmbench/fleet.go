package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	pcpm "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scc"
	"repro/internal/shard"
)

// fleetSize is the number of pcpm-shard worker processes, one per core.
const fleetSize = 2

// fleet is a set of pcpm-shard worker processes, each at GOMAXPROCS=1.
type fleet struct {
	urls  []string
	procs []*exec.Cmd
}

func startFleet(e *env) (*fleet, error) {
	if e.shardBin == "" {
		return nil, errors.New("no -shard-bin given")
	}
	if err := os.MkdirAll(filepath.Join(e.work, "run"), 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	for i := 0; i < fleetSize; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		logf, err := os.Create(filepath.Join(e.work, "run", fmt.Sprintf("shard-worker-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(e.shardBin, "-addr", addr)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout, cmd.Stderr = logf, logf
		// The kernel kills the worker if the benchmark dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, cmd)
		f.urls = append(f.urls, "http://"+addr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range f.urls {
		for {
			resp, err := http.Get(u + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("shard worker %s not healthy: %v", u, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return f, nil
}

// peakRSSMB sums the workers' peak resident sets; call it before stop.
func (f *fleet) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range f.procs {
		mb, err := peakRSSMB(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop terminates every worker and waits for each to exit.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = p.Wait() // exit status of a terminated worker is expected
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	f.procs = nil
}

// runShard is shard-rmat21: the R-MAT input deployed on the worker fleet and
// solved by distributed PCPM rounds driven by an in-process coordinator.
func runShard(e *env) (*outcome, error) {
	o := newOutcome()
	path, err := e.input(rmatKey(e.seed))
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(e)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	coord, err := shard.NewCoordinator(fl.urls, shard.CoordinatorConfig{})
	if err != nil {
		return nil, err
	}
	const name = "rmat"
	var (
		g                           *graph.Graph
		setups, loads, sccs, deploy []float64
	)
	// Two set-ups, not three: each costs a load, an SCC decomposition and
	// a deploy, about 8 s on two cores.
	for i := 0; i < e.setups(2); i++ {
		if i > 0 {
			if err := coord.Remove(name); err != nil {
				return nil, err
			}
		}
		g = nil
		freeMemory()
		root := e.tr.start("bench.setup", 0, 0)
		t0 := time.Now()
		sp := e.tr.start("graph.read_binary", root, 0)
		g, err = loadGraph(path)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp = e.tr.start("scc.decompose", root, 0)
		dec := scc.Decompose(g, engineWorkers)
		e.tr.end(sp)
		t2 := time.Now()
		// Deploy ships the blocks and runs one round: the fleet is then
		// ready to solve, as the kernel is after its PNG build.
		sp = e.tr.start("shard.deploy", root, 0)
		_, err = coord.Deploy(name, g, dec, shard.SolveOptions{Damping: damping, Rounds: 1, Workers: 1})
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		e.tr.end(root)
		setups = append(setups, seconds(end.Sub(t0)))
		loads = append(loads, seconds(t1.Sub(t0)))
		sccs = append(sccs, millis(t2.Sub(t1)))
		deploy = append(deploy, seconds(end.Sub(t2)))
		o.attempted++
	}
	o.sizes = graphSizes("shard-rmat21", g, nil)

	var solves []float64
	rounds := 0
	start := time.Now()
	for len(solves) < e.minOps() || time.Since(start) < e.window {
		ot := e.opTracer(len(solves))
		sp := ot.start("shard.solve", 0, 0)
		t0 := time.Now()
		err := coord.Solve(name, shard.SolveOptions{Damping: damping, Tolerance: tolerance, Workers: 1})
		s := seconds(time.Since(t0))
		ot.end(sp)
		o.attempted++
		if err != nil {
			o.failed++
			o.fail(err)
			break
		}
		o.sample(e, len(solves), 1e3*s)
		solves = append(solves, s)
		info, _ := coord.Info(name)
		rounds = info.Rounds
	}
	if len(solves) == 0 {
		return o, nil // the failed solve is the run's failed check
	}
	// Peak memory is read before the output check gathers the ranks and
	// solves the graph monolithically in this process.
	self, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	workers, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = metric{self + workers, "MB"}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["op_ms"] = metric{1e3 * median(solves), "ms"}
	o.note("setup_s: median of %d set-ups (load %.3f s, SCC %.1f ms, deploy %.3f s)",
		len(setups), median(loads), median(sccs), median(deploy))
	o.note("op_ms: median of %d distributed solves, %d rounds each", len(solves), rounds)
	o.note("rss_mb: benchmark %.1f MB + %d workers %.1f MB", self, fleetSize, workers)

	// Check: the fleet's ranks against a monolithic solve to the same
	// tolerance.
	ranks, err := coord.Ranks(name)
	if err != nil {
		return nil, err
	}
	sp := e.tr.start("core.monolithic_reference", 0, 0)
	mono, err := pcpm.Run(g, pcpm.Options{Tolerance: tolerance, Workers: engineWorkers})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	l1 := core.L1Diff(ranks, mono.Ranks)
	if l1 > 1e-6 {
		o.fail(fmt.Errorf("fleet ranks %.3g L1 from monolithic", l1))
	}
	o.note("check: fleet ranks %.3g L1 from monolithic (limit 1e-6)", l1)

	if e.tr != nil {
		o.layer["shard.deploy_s"] = metric{median(deploy), "s"}
		o.layer["shard.rounds"] = metric{float64(rounds), "count"}
		o.layer["shard.round_ms"] = metric{1e3 * median(solves) / float64(rounds), "ms"}
		// Every round each worker posts its float32 slice to each peer.
		o.layer["shard.swap_bytes_per_round_computed"] = metric{float64(4 * g.NumNodes() * (fleetSize - 1)), "B"}
	}
	return o, nil
}
