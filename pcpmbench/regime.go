package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/png"
)

// regime describes the host a report was measured on.
type regime struct {
	nproc, gomaxprocs int
	goVersion         string
	l2, llc           int64 // bytes; 0 when sysfs does not say
}

func readRegime() regime {
	r := regime{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := readSize(filepath.Join(d, "size"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if err1 != nil || err2 != nil || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if level == 2 {
			r.l2 = size
		}
		if level >= best {
			best, r.llc = level, size
		}
	}
	return r
}

func readInt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// readSize parses sysfs cache sizes such as "2048K".
func readSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

func (r regime) print() {
	fmt.Printf("# regime: nproc %d, GOMAXPROCS %d, %s, L2 %s per core, LLC %s (sysfs)\n",
		r.nproc, r.gomaxprocs, r.goVersion, mib(r.l2), mib(r.llc))
}

// sizes are one workload's data-structure footprints.
type sizes struct {
	workload string
	nodes    int
	edges    int64
	rankB    int64 // float32 rank vector
	csrCSCB  int64 // int64 offsets plus uint32 adjacency, both directions
	pngB     int64 // PNG source lists, destination-ID streams and update bins
}

func graphSizes(workload string, g *graph.Graph, p *png.PNG) sizes {
	n, m := int64(g.NumNodes()), g.NumEdges()
	s := sizes{workload: workload, nodes: int(n), edges: m, rankB: 4 * n, csrCSCB: 2 * (8*(n+1) + 4*m)}
	if p != nil {
		s.pngB = 4*(2*p.EdgesCompressed+p.DestTotal()) + int64(4*p.K*(p.K+1))
	}
	return s
}

// pngOf builds the default-layout PNG only to size it for the header.
func pngOf(g *graph.Graph) *png.PNG {
	l, err := partition.FromBytes(g.NumNodes(), 256<<10)
	if err != nil {
		return nil
	}
	p, err := png.Build(g, l, 2)
	if err != nil {
		return nil
	}
	return p
}

func (s sizes) print(r regime) {
	if s.nodes == 0 {
		return
	}
	png := "not built by this workload"
	if s.pngB > 0 {
		png = mib(s.pngB)
	}
	fmt.Printf("#   graph: %d nodes, %d edges; rank vector %s, CSR+CSC %s, PNG %s\n",
		s.nodes, s.edges, mib(s.rankB), mib(s.csrCSCB), png)
	if r.l2 > 0 && r.llc > 0 {
		fmt.Printf("#   rank vector = %.2fx L2, %.3fx LLC", float64(s.rankB)/float64(r.l2), float64(s.rankB)/float64(r.llc))
		if s.rankB < 8*r.llc {
			fmt.Print(" (below the 8x-LLC regime the ROADMAP asks for; this host's LLC is too large to reach it)")
		}
		fmt.Println()
	}
}

func mib(b int64) string { return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20)) }

// memPeaks measures this process's peak resident memory phase by phase:
// each set-up from a reset high-water mark, then the timed phase. A peak of
// the Go heap depends on when the collector ran, so the set-ups' median is
// steadier than the whole run's peak.
type memPeaks struct{ setups []float64 }

// begin frees the previous phase's garbage and resets VmHWM to the current
// resident set (Linux clear_refs), so the next read gives this phase's peak.
func (m *memPeaks) begin() error {
	freeMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// endSetup records the peak of the set-up since begin.
func (m *memPeaks) endSetup() error {
	p, err := peakRSSMB(os.Getpid())
	m.setups = append(m.setups, p)
	return err
}

// result is rss_mb: the larger of the set-ups' median peak and the timed
// phase's peak, the phase since the last begin.
func (m *memPeaks) result(o *outcome) (float64, error) {
	p, err := peakRSSMB(os.Getpid())
	s := median(m.setups)
	o.note("rss_mb: the larger of the set-ups' median peak %.1f MB (%d set-ups) and the timed phase's peak %.1f MB", s, len(m.setups), p)
	return max(s, p), err
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
