package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// tracedRound is one traced round's spans reduced to per-name sums.
type tracedRound struct {
	r           *roundResult
	total, self map[string]time.Duration
	calls       map[string]int
	wall        time.Duration
}

func (tr *tracedRound) sec(name string) float64 { return tr.total[name].Seconds() }

// perCallUS is the mean duration of one call, in microseconds.
func (tr *tracedRound) perCallUS(name string) float64 {
	if tr.calls[name] == 0 {
		return 0
	}
	return float64(tr.total[name].Microseconds()) / float64(tr.calls[name])
}

// rate is count per second of the named spans, in millions.
func (tr *tracedRound) rate(count string, span string) float64 {
	if tr.total[span] == 0 {
		return 0
	}
	return tr.r.counts[count] / 1e6 / tr.sec(span)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layer is one per-layer metric. Each moves the end-to-end metric named in
// BENCHMARK.json; a layer a workload does not reach reports 0.
type layer struct {
	name, unit string
	value      func(*tracedRound) float64
}

func perCall(span string) func(*tracedRound) float64 {
	return func(tr *tracedRound) float64 { return tr.perCallUS(span) }
}

func seconds(span string) func(*tracedRound) float64 {
	return func(tr *tracedRound) float64 { return tr.sec(span) }
}

func count(key string) func(*tracedRound) float64 {
	return func(tr *tracedRound) float64 { return tr.r.counts[key] }
}

var layers = []layer{
	{"source.parse_us", "us", perCall("source.parse")},
	{"source.check_us", "us", perCall("source.check")},
	{"effects.analyze_us", "us", perCall("effects.analyze")},
	{"lower.from_ast_us", "us", perCall("lower.from_ast")},
	{"core.compile_us", "us", perCall("core.compile")},
	{"core.compile_commopt_us", "us", perCall("core.compile_commopt")},
	{"verify.check_us", "us", perCall("verify.check")},
	{"costmodel.analyze_us", "us", perCall("costmodel.analyze")},
	{"commopt.analyze_us", "us", perCall("commopt.analyze")},

	{"pipeline.instantiate_ms", "ms", func(tr *tracedRound) float64 { return tr.sec("pipeline.instantiate") * 1e3 }},
	{"pipeline.instantiate_calls", "count", func(tr *tracedRound) float64 { return float64(tr.calls["pipeline.instantiate"]) }},

	{"sim.functional_s", "s", seconds("sim.functional")},
	{"sim.functional_minstr_per_s", "M/s", func(tr *tracedRound) float64 { return tr.rate("functional_instr", "sim.functional") }},
	{"sim.trace_entries", "count", count("trace_entries")},
	{"sim.functional_alloc_mb", "MB", func(tr *tracedRound) float64 { return tr.r.counts["functional_alloc"] / 1e6 }},
	{"sim.timing_s", "s", seconds("sim.timing")},
	{"sim.timing_mcycles_per_s", "M/s", func(tr *tracedRound) float64 { return tr.rate("timing_cycles", "sim.timing") }},
	{"sim.timing_runs", "count", func(tr *tracedRound) float64 { return float64(tr.calls["sim.timing"]) }},
	{"sim.budget_aborts", "count", count("budget_aborts")},

	{"sim.issue_cycles", "count", count("issue_cycles")},
	{"sim.backend_stall_cycles", "count", count("backend_stall_cycles")},
	{"sim.queue_stall_cycles", "count", count("queue_stall_cycles")},
	{"sim.other_stall_cycles", "count", count("other_stall_cycles")},
	{"sim.mispredicts", "count", count("mispredicts")},
	{"sim.handler_fires", "count", count("handler_fires")},
	{"sim.ra_loads", "count", count("ra_loads")},
	{"cache.l1_misses", "count", count("l1_misses")},
	{"cache.l2_misses", "count", count("l2_misses")},
	{"cache.l3_misses", "count", count("l3_misses")},
	{"cache.mem_accesses", "count", count("mem_accesses")},

	{"native.run_s", "s", seconds("native.run")},
	{"native.minstr_per_s", "M/s", func(tr *tracedRound) float64 { return tr.rate("native_instr", "native.run") }},
	{"native.alloc_mb", "MB", func(tr *tracedRound) float64 { return tr.r.counts["native_alloc"] / 1e6 }},

	{"workloads.verify_ms", "ms", func(tr *tracedRound) float64 { return tr.sec("workloads.verify") * 1e3 }},

	{"core.search_s", "s", seconds("core.search")},
	{"core.serial_s", "s", seconds("core.serial")},
	{"core.build_s", "s", seconds("core.build")},
	{"core.verify_s", "s", seconds("core.verify")},
	{"core.train_s", "s", seconds("core.train")},
	{"core.search_self_s", "s", func(tr *tracedRound) float64 { return tr.self["core.search"].Seconds() }},
	{"core.enumerated", "count", count("enumerated")},
	{"core.searched", "count", count("searched")},
	{"core.deduped", "count", count("deduped")},
	{"core.skipped", "count", count("skipped")},
	{"core.useful_ratio", "ratio", func(tr *tracedRound) float64 {
		return ratio(tr.r.counts["accepted"], tr.r.counts["searched"])
	}},
	// The search runs with Parallelism 1: busy time over wall time. A
	// build span encloses the candidate's commopt and verify spans.
	{"core.worker_busy_ratio", "ratio", func(tr *tracedRound) float64 {
		busy := tr.sec("core.build") + tr.sec("core.train")
		return ratio(busy, tr.sec("core.search"))
	}},

	{"trace.other_share", "ratio", func(tr *tracedRound) float64 { return ratio(other(tr).Seconds(), tr.wall.Seconds()) }},
}

// glue reports whether a span is the benchmark's own (a round or an
// operation) rather than a call into a layer.
func glue(name string) bool { return name == "round" || strings.HasPrefix(name, "op ") }

// other is the part of a round's wall time no layer span covers: the
// round's and the operations' self time.
func other(tr *tracedRound) time.Duration {
	var d time.Duration
	for name, s := range tr.self {
		if glue(name) {
			d += s
		}
	}
	return d
}

// layerMetrics reduces the traced rounds to the per-layer metrics (medians
// over rounds) and checks that layer self times plus the other remainder
// reconcile with each round's wall time.
func layerMetrics(spans []span, traced, untraced []*roundResult) (map[string]metric, error) {
	byRun := map[int][]int{}
	for i, s := range spans {
		byRun[s.Run] = append(byRun[s.Run], i)
	}
	var trs []*tracedRound
	var rerr error
	for i, r := range traced {
		run := len(untraced) + i
		total, self, calls, wall := selfTimes(spans, byRun[run])
		tr := &tracedRound{r: r, total: total, self: self, calls: calls, wall: wall}
		var layerSelf time.Duration
		for name, s := range self {
			if !glue(name) {
				layerSelf += s
			}
		}
		if d := wall - layerSelf - other(tr); d < -time.Microsecond || d > time.Microsecond ||
			other(tr) < 0 {
			rerr = fmt.Errorf("traced round %d: layer self times %v + other %v != wall %v", run, layerSelf, other(tr), wall)
		}
		trs = append(trs, tr)
	}
	out := map[string]metric{}
	for _, l := range layers {
		var vs []float64
		for _, tr := range trs {
			vs = append(vs, l.value(tr))
		}
		out[l.name] = metric{median(vs), l.unit}
	}
	var tw, uw []float64
	for _, r := range traced {
		tw = append(tw, r.wall.Seconds())
	}
	for _, r := range untraced {
		uw = append(uw, r.wall.Seconds())
	}
	out["trace.overhead_s"] = metric{median(tw) - median(uw), "s"}
	printSelfTimes(trs[len(trs)-1])
	return out, rerr
}

// printSelfTimes writes the last traced round's self-time table to
// standard error.
func printSelfTimes(tr *tracedRound) {
	type row struct {
		name string
		self time.Duration
	}
	var rows []row
	for name, s := range tr.self {
		if !glue(name) {
			rows = append(rows, row{name, s})
		}
	}
	rows = append(rows, row{"other", other(tr)})
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(os.Stderr, "perfbench: self time of the last traced round (wall %v)\n", tr.wall.Round(time.Microsecond))
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-28s %12v %6.1f%%\n", r.name, r.self.Round(time.Microsecond),
			100*ratio(r.self.Seconds(), tr.wall.Seconds()))
	}
}
