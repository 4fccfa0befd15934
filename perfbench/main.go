// Command perfbench is the repository benchmark. It drives the public
// entry points of the compiler, the simulator and the native backend from
// outside, as a closed loop with one client: each operation starts when the
// previous one finishes. A workload's operations form a round; rounds repeat
// for the requested number of seconds and every round checks its outputs.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload simulate|autotune|execute|compile --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 the first half of the time runs
// untraced rounds and the second half traced rounds, and the metrics are
// the per-layer ones taken from the traced rounds. Spans of traced rounds
// are written under .bench_build/perfbench-trace when the run ends. Any
// failed check makes the exit code nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"phloem/internal/bench"
	"phloem/internal/obs"
	"phloem/internal/workloads"
)

// setupReps is how many times set-up runs; setup_s is the median. A set-up
// takes a few milliseconds, and a shared host's speed changes over tenths
// of a second, so the repetitions span about a second.
const setupReps = 151

// traceDir is where traced runs leave their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/perfbench-trace"

// A workload sets up its inputs once per repetition and returns the
// function that runs one round over them.
type workload struct {
	setup func(seed int64) (roundFunc, error)
	// workUnit names what the throughput metric counts.
	workUnit string
	// procs, when set, caps GOMAXPROCS below nproc.
	procs int
}

type roundFunc func(t *tracer, r *roundResult)

var workloadsByName = map[string]workload{
	"simulate": {setup: setupSimulate, workUnit: "simulated Mcycles"},
	"autotune": {setup: setupAutotune, workUnit: "searched candidates"},
	"execute":  {setup: setupExecute, workUnit: "native Minstr (per native second)"},
	// The compiler is serial. On one P the garbage collector runs inline
	// too, so a round's sub-millisecond operations do not wait on another
	// core of a shared host: on a 2-vCPU host, a busy loop on the other
	// vCPU moved the median round by 7% with two Ps and by 1% with one.
	"compile": {setup: setupCompile, workUnit: "core.Compile calls", procs: 1},
}

// roundResult is what one round produced.
type roundResult struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	ops     int
	failed  int
	// opTimes is the wall time of each operation, in order.
	opTimes []time.Duration
	// work counts the workload's throughput units; workTime, when set,
	// replaces the summed operation times as the throughput's denominator.
	work     float64
	workTime time.Duration
	// cost is the deterministic output cost: simulated cycles, winner
	// training cycles, dynamic instructions or compiled code size.
	cost float64
	// sig lists the round's deterministic outputs; every round of a run,
	// traced or not, must produce the same list.
	sig []string
	// counts holds per-layer counters recorded during the round.
	counts map[string]float64
	// searches keeps each autotune search's event stream (traced rounds).
	searches map[string]*obs.Collector
}

func (r *roundResult) add(key string, v float64) { r.counts[key] += v }

// op starts one operation: it counts it and opens its span. The returned
// function ends both and records the operation's wall time.
func (r *roundResult) op(t *tracer, label string) (done func()) {
	r.ops++
	id := t.begin("op " + label)
	t0 := time.Now()
	return func() {
		r.opTimes = append(r.opTimes, time.Since(t0))
		t.end(id)
	}
}

// fail records one failed operation.
func (r *roundResult) fail(op string, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "simulate, autotune, execute or compile")
	seed := flag.Int64("seed", 0, "offset added to every input generator seed (0 = the suite's inputs)")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from traced rounds")
	flag.Parse()
	w, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload simulate|autotune|execute|compile --seed N --seconds S>=1 --trace 0|1")
		return 2
	}
	traced := *traceFlag == 1

	// One client on at most nproc threads. runtime.NumCPU reads the CPU
	// affinity mask, as nproc does.
	nproc := runtime.NumCPU()
	procs := nproc
	if w.procs > 0 && w.procs < procs {
		procs = w.procs
	}
	if runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}
	host := struct {
		bench.HostInfo
		Nproc    int    `json:"nproc"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
	}{bench.Host(workloads.ScaleTest), nproc, *name, *seed, traced}
	hostLine, _ := json.Marshal(map[string]any{"host": host}) // plain struct: cannot fail
	fmt.Println(string(hostLine))

	var round roundFunc
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		round, err = w.setup(*seed)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
	}

	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	plain := newTracer(false)
	var untraced, tracedRounds []*roundResult
	var spans []span
	if !traced {
		untraced = rounds(round, plain, budget, 0, 2)
	} else {
		untraced = rounds(round, plain, budget/2, 0, 1)
		left := budget - time.Since(start)
		tr := newTracer(true)
		tracedRounds = rounds(round, tr, left, len(untraced), 1)
		spans = tr.spans
		if err := writeTrace(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", *name, *seed)),
			tr.spans, tracedRounds[len(tracedRounds)-1].searches); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	all := append(append([]*roundResult{}, untraced...), tracedRounds...)

	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.ops
		failed += r.failed
	}
	// Deterministic outputs must repeat exactly in every round, traced or
	// not: a mismatch fails the run.
	for i, r := range all[1:] {
		if d := diffSig(all[0].sig, r.sig); d != "" {
			fmt.Fprintf(os.Stderr, "perfbench: round %d output differs from round 0: %s\n", i+1, d)
			failed++
		}
	}

	var metrics map[string]metric
	if traced {
		var err error
		metrics, err = layerMetrics(spans, tracedRounds, untraced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
		}
	} else {
		metrics = endToEnd(untraced, setups, attempted, failed)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced + %d traced rounds, %d ops, %d failed; throughput counts %s\n",
		*name, *seed, len(untraced), len(tracedRounds), attempted, failed, w.workUnit)
	out, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rounds runs rounds until the budget is spent, and at least minimum.
// Past the minimum it does not start a round that would likely end more
// than a quarter past the budget. Round ids continue from first.
func rounds(fn roundFunc, t *tracer, budget time.Duration, first, minimum int) []*roundResult {
	var out []*roundResult
	var walls []float64
	start := time.Now()
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := &roundResult{counts: map[string]float64{}, searches: map[string]*obs.Collector{}}
		t.run = first + len(out)
		root := t.begin("round")
		c0 := cpuTime()
		t0 := time.Now()
		fn(t, r)
		r.wall = time.Since(t0)
		r.cpu = cpuTime() - c0
		t.end(root)
		runtime.ReadMemStats(&m1)
		r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		out = append(out, r)
		walls = append(walls, r.wall.Seconds())
		elapsed := time.Since(start)
		next := time.Duration(median(walls) * float64(time.Second))
		if len(out) >= minimum && (elapsed >= budget || elapsed+next > budget*5/4) {
			var cpus []float64
			for _, r := range out {
				cpus = append(cpus, r.cpu.Seconds())
			}
			sort.Float64s(walls)
			fmt.Fprintf(os.Stderr, "perfbench: %d rounds (traced %v): wall min %.4fs median %.4fs max %.4fs, cpu median %.4fs\n",
				len(out), t.on, walls[0], median(walls), walls[len(walls)-1], median(cpus))
			return out
		}
	}
}

// manyRounds is the round count from which wall_s and throughput come
// from the fastest round instead of the median one. Every round does the
// same work, and a shared host's slow phases, which last tenths of a
// second, only add time to it. Many short rounds always include some that
// miss them all: on a 2-vCPU shared host the fastest compile round moved by
// 13% between runs minutes apart, the median one by 78%. A few long rounds
// each average over the phases, and their median is the steadier figure.
const manyRounds = 100

// endToEnd reports the metrics a user of the system sees, from untraced
// rounds.
func endToEnd(rs []*roundResult, setups []float64, attempted, failed int) map[string]metric {
	var allocs, walls, rates []float64
	for _, r := range rs {
		allocs = append(allocs, r.allocMB)
		var d time.Duration
		for _, t := range r.opTimes {
			d += t
		}
		walls = append(walls, d.Seconds())
		if r.workTime != 0 {
			d = r.workTime
		}
		rates = append(rates, r.work/d.Seconds())
	}
	wall, rate := median(walls), median(rates)
	if len(rs) >= manyRounds {
		wall, rate = slices.Min(walls), slices.Max(rates)
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"wall_s":       {wall, "s"},
		"alloc_mb":     {median(allocs), "MB"},
		"max_rss_mb":   {maxRSSMB(), "MB"},
		"success_rate": {float64(attempted-failed) / float64(attempted), "ratio"},
		"throughput":   {rate, "1/s"},
		"output_cost":  {rs[0].cost, "count"},
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// diffSig names the first differing deterministic output.
func diffSig(want, got []string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%q, want %q", firstLine(got[i]), firstLine(want[i]))
		}
	}
	return ""
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
