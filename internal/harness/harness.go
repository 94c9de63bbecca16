// Package harness runs the paper's evaluation (§6): it builds each
// system (PREP-V, PREP-Buffered, PREP-Durable, CX-PUC, the global-lock UC,
// and the SOFT hashtable) at each thread count, prefills the object to the
// paper's occupancy, drives the workload for a fixed span of virtual time,
// and reports throughput in operations per (virtual) second — regenerating
// every figure of the evaluation. See catalog.go for the figure definitions.
package harness

import (
	"fmt"
	"io"
	"sort"

	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/par"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// System is what the harness drives: any universal construction (uc.UC)
// that additionally supports a direct prefill before measurement. Each
// measured point carries the counter deltas of its cell's machine
// (nvm.System.Metrics).
type System interface {
	uc.UC
	Prefill(t *sim.Thread, ops []uc.Op)
}

// Background is implemented by systems that need auxiliary threads during
// measurement (PREP-UC's persistence thread).
type Background interface {
	// SpawnBackground starts auxiliary threads on the system's current
	// scheduler.
	SpawnBackground()
	// StopBackground asks them to exit; called by the last worker.
	StopBackground(t *sim.Thread)
}

// BuildFunc constructs a System for the given worker count inside sys.
type BuildFunc func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error)

// AlgoSpec names one curve of a figure.
type AlgoSpec struct {
	Name  string
	Build BuildFunc
}

// Point is one measurement. Metrics holds the counter deltas of the
// measurement phase only (boot and prefill activity is subtracted out).
type Point struct {
	Algo      string           `json:"algo"`
	Threads   int              `json:"threads"`
	Ops       uint64           `json:"ops"`
	OpsPerSec float64          `json:"ops_per_sec"`
	Metrics   metrics.Snapshot `json:"metrics"`
}

// Figure is one reproducible experiment: a workload plus the systems
// compared on it.
type Figure struct {
	ID, Title string
	Workload  workload.Spec
	Algos     []AlgoSpec
	// ExpectedShape documents the qualitative result the paper reports,
	// checked in EXPERIMENTS.md.
	ExpectedShape string
}

// RunFigure measures every (algo, thread-count) pair of the figure and
// returns the points. Each cell owns a private scheduler and nvm.System, so
// up to jobs cells run concurrently (jobs <= 0 selects GOMAXPROCS); results
// are slotted by cell index and progress lines are released in cell order,
// so the points and the output are identical for every jobs value.
// Progress lines go to w when non-nil. A build failure is reported for the
// lowest-index failing cell (with the failing algo and thread count wrapped
// in) rather than panicking, so callers can exit cleanly.
func RunFigure(fig Figure, sc Scale, seed int64, jobs int, w io.Writer) ([]Point, error) {
	type cell struct {
		algo    AlgoSpec
		threads int
	}
	var cells []cell
	for _, algo := range fig.Algos {
		for _, threads := range sc.Threads {
			cells = append(cells, cell{algo, threads})
		}
	}
	points := make([]Point, len(cells))
	errs := make([]error, len(cells))
	var seq par.Seq
	par.Do(par.Jobs(jobs), len(cells), func(i int) {
		c := cells[i]
		p, err := runPoint(fig, sc, c.algo, c.threads, seed)
		points[i], errs[i] = p, err
		seq.Done(i, func() {
			if w == nil || err != nil {
				return
			}
			fmt.Fprintf(w, "  %-22s threads=%-3d ops=%-10d %12.0f ops/s\n",
				c.algo.Name, c.threads, p.Ops, p.OpsPerSec)
		})
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %s threads=%d: %w",
				fig.ID, cells[i].algo.Name, cells[i].threads, err)
		}
	}
	return points, nil
}

// cellMachine boots one closed-loop figure cell: algo built for threads
// workers on a fresh machine and prefilled, all on the boot thread. A
// construction with several replicas replays the prefill once and mirrors it
// to the others (nvm.Memory.Mirror; DESIGN.md §7, "Prefill by mirror"), so
// set-up costs one replay per construction, not one per replica. The cell's
// one driver takes its auxiliary threads from the built system's Background.
func cellMachine(sc Scale, algo AlgoSpec, threads int, seed int64, prefill []uc.Op) (*Machine, error) {
	d := &uc.Driver{Name: algo.Name}
	d.Boot = func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
		impl, err := algo.Build(t, sys, sc, threads)
		if err != nil {
			return nil, err
		}
		if bg, ok := impl.(Background); ok {
			d.SpawnAux, d.StopAux = bg.SpawnBackground, bg.StopBackground
		}
		impl.Prefill(t, prefill)
		return impl, nil
	}
	m, err := BootMachine(sc.Topology, nvm.Config{Costs: sc.Costs, Seed: uint64(seed) + 1}, d)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return m, nil
}

// runPoint measures one (algo, threads) configuration.
func runPoint(fig Figure, sc Scale, algo AlgoSpec, threads int, seed int64) (Point, error) {
	m, err := cellMachine(sc, algo, threads, seed, fig.Workload.PrefillOps(seed))
	if err != nil {
		return Point{}, err
	}
	// Counter state after boot+prefill; subtracted from the post-measurement
	// snapshot so the point carries measurement-phase deltas only.
	base := m.Sys.Metrics().Snapshot()

	eng := m.Engines[0]
	opsDone := make([]uint64, threads)
	if _, err := m.Run(0, threads, func(t *sim.Thread, _, tid int) {
		gen := workload.NewGen(fig.Workload, seed+13, tid)
		for t.Clock() < sc.DurationNS {
			eng.Execute(t, tid, gen.Next())
			opsDone[tid]++
		}
	}); err != nil {
		return Point{}, fmt.Errorf("run: %w", err)
	}

	var total uint64
	for _, n := range opsDone {
		total += n
	}
	return Point{
		Algo:      algo.Name,
		Threads:   threads,
		Ops:       total,
		OpsPerSec: float64(total) / (float64(sc.DurationNS) / 1e9),
		Metrics:   m.Sys.Metrics().Snapshot().Sub(base),
	}, nil
}

// WriteTable renders points as the paper's series: one row per thread
// count, one column per algorithm.
func WriteTable(w io.Writer, fig Figure, points []Point) {
	fmt.Fprintf(w, "\n%s — %s (ops/sec)\n", fig.ID, fig.Title)
	byAlgo := map[string]map[int]float64{}
	threadSet := map[int]bool{}
	var algos []string
	for _, p := range points {
		if byAlgo[p.Algo] == nil {
			byAlgo[p.Algo] = map[int]float64{}
			algos = append(algos, p.Algo)
		}
		byAlgo[p.Algo][p.Threads] = p.OpsPerSec
		threadSet[p.Threads] = true
	}
	var threads []int
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	fmt.Fprintf(w, "%8s", "threads")
	for _, a := range algos {
		fmt.Fprintf(w, " %22s", a)
	}
	fmt.Fprintln(w)
	for _, th := range threads {
		fmt.Fprintf(w, "%8d", th)
		for _, a := range algos {
			fmt.Fprintf(w, " %22.0f", byAlgo[a][th])
		}
		fmt.Fprintln(w)
	}
	if fig.ExpectedShape != "" {
		fmt.Fprintf(w, "expected shape: %s\n", fig.ExpectedShape)
	}
}
