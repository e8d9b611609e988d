package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Input graphs. Each is generated once from the run's seed, cached as a
// graph.WriteBinary file keyed by family, parameters and seed, and checked
// against its SHA-256 on every run. Generation runs in a child process, so
// it is never inside a timed interval and never inside rss_mb.
//
// The R-MAT family draws its edges once with gen.RMAT at a fixed generator
// seed (about 45 s single-threaded at scale 21) and lets the run seed pick
// the Graph500 vertex relabeling applied to that sample, so every seed gets
// its own graph for seconds of work instead of a new 45 s draw.
const (
	rmatScale      = 21
	rmatEdgeFactor = 16
	rmatBaseSeed   = 1
	paNodes        = 200000
	paOutDegree    = 8
)

func rmatKey(seed uint64) string {
	return fmt.Sprintf("rmat-s%d-ef%d-base%d-seed%d", rmatScale, rmatEdgeFactor, rmatBaseSeed, seed)
}

func rmatBaseKey() string {
	return fmt.Sprintf("rmat-s%d-ef%d-base%d", rmatScale, rmatEdgeFactor, rmatBaseSeed)
}

func paKey(seed uint64) string {
	return fmt.Sprintf("pa-n%d-d%d-seed%d", paNodes, paOutDegree, seed)
}

// keep bounds how many seeds of one family stay cached.
var keep = map[string]int{"rmat": 8, "pa": 32}

func inputPath(work, key string) string { return filepath.Join(work, "inputs", key+".bin") }

// input returns the path of the verified cached graph for key, generating
// it in a child process first when it is missing or fails its checksum.
func (e *env) input(key string) (string, error) {
	path := inputPath(e.work, key)
	if err := verify(path); err == nil {
		return path, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-prep", key, "-work", e.work)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generate %s: %w", key, err)
	}
	if err := verify(path); err != nil {
		return "", err
	}
	evict(e.work, key)
	return path, nil
}

// verify recomputes the file's SHA-256 and compares it with the sidecar
// written at generation time. Reading the file also leaves it in the page
// cache, so the timed load that follows reads memory, not the disk.
func verify(path string) error {
	want, err := os.ReadFile(path + ".sha256")
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		return fmt.Errorf("%s: checksum %s, want %s", path, got, want)
	}
	return nil
}

// evict removes the oldest cached seeds of key's family beyond its limit.
func evict(work, key string) {
	family, _, _ := strings.Cut(key, "-")
	files, _ := filepath.Glob(filepath.Join(work, "inputs", family+"-*-seed*.bin"))
	if len(files) <= keep[family] {
		return
	}
	mtime := map[string]int64{}
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			mtime[f] = st.ModTime().UnixNano()
		}
	}
	sort.Slice(files, func(i, j int) bool { return mtime[files[i]] < mtime[files[j]] })
	for _, f := range files[:len(files)-keep[family]] {
		if f != inputPath(work, key) {
			os.Remove(f)
			os.Remove(f + ".sha256")
		}
	}
}

// prepInput is the child-process side of input: it builds the graph for
// key and writes it with its checksum.
func prepInput(work, key string) error {
	var seed uint64
	var g *graph.Graph
	var err error
	switch {
	case strings.HasPrefix(key, "pa-"):
		if _, err := fmt.Sscanf(key, fmt.Sprintf("pa-n%d-d%d-seed%%d", paNodes, paOutDegree), &seed); err != nil {
			return fmt.Errorf("bad key %q", key)
		}
		g, err = gen.PreferentialAttachment(paNodes, paOutDegree, seed, graph.BuildOptions{})
	case strings.HasPrefix(key, rmatBaseKey()+"-seed"):
		if _, err := fmt.Sscanf(strings.TrimPrefix(key, rmatBaseKey()), "-seed%d", &seed); err != nil {
			return fmt.Errorf("bad key %q", key)
		}
		g, err = relabeledRMAT(work, seed)
	default:
		return fmt.Errorf("unknown input key %q", key)
	}
	if err != nil {
		return err
	}
	return writeInput(inputPath(work, key), g)
}

// relabeledRMAT applies the seed's random vertex permutation to the cached
// base R-MAT sample, drawing and caching that sample on first use.
func relabeledRMAT(work string, seed uint64) (*graph.Graph, error) {
	basePath := inputPath(work, rmatBaseKey())
	if verify(basePath) != nil {
		fmt.Fprintf(os.Stderr, "pcpmbench: drawing the R-MAT scale-%d sample (once per checkout)\n", rmatScale)
		base, err := gen.RMAT(gen.Graph500RMAT(rmatScale, rmatEdgeFactor, rmatBaseSeed), graph.BuildOptions{})
		if err != nil {
			return nil, err
		}
		if err := writeInput(basePath, base); err != nil {
			return nil, err
		}
	}
	base, err := loadGraph(basePath)
	if err != nil {
		return nil, err
	}
	// Emit edges in (new source, new destination) order, so FromEdges'
	// counting sort leaves every adjacency list already sorted.
	n := base.NumNodes()
	perm := gen.RandomPermutation(n, seed)
	inv := make([]graph.NodeID, n)
	for old, v := range perm {
		inv[v] = graph.NodeID(old)
	}
	edges := make([]graph.Edge, 0, base.NumEdges())
	var dsts []graph.NodeID
	for u := 0; u < n; u++ {
		dsts = dsts[:0]
		for _, v := range base.OutNeighbors(inv[u]) {
			dsts = append(dsts, perm[v])
		}
		slices.Sort(dsts)
		for _, v := range dsts {
			edges = append(edges, graph.Edge{Src: graph.NodeID(u), Dst: v, W: 1})
		}
	}
	base = nil
	return graph.FromEdges(n, edges, false, graph.BuildOptions{})
}

func writeInput(path string, g *graph.Graph) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	if err := graph.WriteBinary(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(path+".sha256", []byte(hex.EncodeToString(h.Sum(nil))+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadGraph is the timed load every set-up starts with.
func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinary(bufio.NewReaderSize(f, 1<<20))
}
