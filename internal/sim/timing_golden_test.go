package sim_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/isa"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The timing golden pins the full Stats of a spread of timing runs: every
// family's static pipeline (commopt off and on) on its two smallest test
// inputs, a manual pipeline, data-parallel pipelines with barriers,
// non-default machine configurations, aborted runs, each timing fault
// hook, and a digest of the probe stream. Any change to the timing engine
// that is meant to be a pure speed-up must leave every file under
// testdata/timing byte-identical.

// goldenRecord is what one case writes to its golden file.
type goldenRecord struct {
	Stats *sim.Stats `json:",omitempty"`
	// Err is the run's error text; Partial the stats attached to an abort.
	Err      string               `json:",omitempty"`
	Partial  *sim.Stats           `json:",omitempty"`
	Deadlock *sim.WaitForSnapshot `json:",omitempty"`
	Idle     uint64               `json:",omitempty"`
	Probe    *probeDigest         `json:",omitempty"`
}

type probeDigest struct {
	Events map[string]int
	Digest string
}

// compiled caches each family's static pipeline per (family, commopt,
// machine) so the cases share compiles.
var compiled sync.Map

func compileFamily(t testing.TB, b *workloads.Benchmark, commopt bool, cfg arch.Config) *pipeline.Pipeline {
	t.Helper()
	key := fmt.Sprintf("%s/%v/%d/%d", b.Name, commopt, cfg.Cores, cfg.ThreadsPerCore)
	if p, ok := compiled.Load(key); ok {
		return p.(*pipeline.Pipeline)
	}
	prog, err := workloads.CompileSerial(b.SerialSource)
	if err != nil {
		t.Fatalf("%s: compile serial: %v", b.Name, err)
	}
	opt := core.DefaultOptions()
	opt.CommOpt = commopt
	opt.Machine = cfg
	res, err := core.Compile(prog, opt)
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name, err)
	}
	compiled.Store(key, res.Pipeline)
	return res.Pipeline
}

// smallestTests names each family's two test inputs with the fewest
// dynamic instructions (static pipeline, default machine).
var smallestTests = map[string][2]string{
	"BFS":   {"hugetrace", "freescale"},
	"CC":    {"hugetrace", "coauthors"},
	"PRD":   {"hugetrace", "coauthors"},
	"Radii": {"skitter", "coauthors"},
	"SpMM":  {"p2p-gnutella", "2cubes"},
}

// testInput returns the benchmark's test input called name.
func testInput(t testing.TB, b *workloads.Benchmark, name string) *workloads.Input {
	t.Helper()
	for _, in := range b.Test {
		if in.Name == name {
			return in
		}
	}
	t.Fatalf("%s has no test input %q", b.Name, name)
	return nil
}

// smallest returns the benchmark's smallest test input.
func smallest(t testing.TB, b *workloads.Benchmark) *workloads.Input {
	return testInput(t, b, smallestTests[b.Name][0])
}

// runPipeline instantiates pipe on in with cfg, lets setup adjust the
// machine, runs it, and verifies the outputs of successful runs.
func runPipeline(t *testing.T, pipe *pipeline.Pipeline, cfg arch.Config, in *workloads.Input, setup func(*sim.Machine)) goldenRecord {
	t.Helper()
	inst, err := pipeline.Instantiate(pipe, cfg, in.Bind())
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if setup != nil {
		setup(inst.Machine)
	}
	st, err := inst.Run()
	rec := record(st, err)
	if err == nil {
		if verr := in.Verify(inst); verr != nil {
			t.Fatalf("verify: %v", verr)
		}
	}
	return rec
}

func record(st *sim.Stats, err error) goldenRecord {
	rec := goldenRecord{Stats: st}
	if err == nil {
		return rec
	}
	rec.Err = err.Error()
	var cb *sim.CycleBudgetError
	var ce *sim.CancelledError
	var de *sim.DeadlockError
	switch {
	case errors.As(err, &cb):
		rec.Partial = cb.Stats
	case errors.As(err, &ce):
		rec.Partial = ce.Stats
	case errors.As(err, &de):
		rec.Deadlock, rec.Idle = de.Snapshot, de.IdleCycles
	}
	return rec
}

// hashProbe folds every probe callback, in order, into one FNV-64a digest.
type hashProbe struct {
	h      hash.Hash64
	buf    []byte
	events map[string]int
}

func newHashProbe() *hashProbe {
	return &hashProbe{h: fnv.New64a(), events: map[string]int{}}
}

func (p *hashProbe) add(kind string, vals ...uint64) {
	p.events[kind]++
	p.buf = append(p.buf[:0], kind...)
	for _, v := range vals {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, v)
	}
	p.h.Write(p.buf)
}

func (p *hashProbe) BeginTiming(m *sim.Machine) { p.add("begin", uint64(len(m.Stages))) }
func (p *hashProbe) Sample(now uint64, s *sim.Stats) {
	b := s.TotalBreakdown()
	p.add("sample", now, s.Cycles, s.Issued, b.Issue, b.Backend, b.Queue, b.Other, s.Cache.L1Misses)
}
func (p *hashProbe) QueueLen(q, ln int, now uint64) { p.add("queuelen", uint64(q), uint64(ln), now) }
func (p *hashProbe) ThreadState(th int, st sim.StallClass, now uint64) {
	p.add("threadstate", uint64(th), uint64(st), now)
}
func (p *hashProbe) ThreadDone(th int, now uint64) { p.add("threaddone", uint64(th), now) }
func (p *hashProbe) Issued(th, pc int, now uint64) { p.add("issued", uint64(th), uint64(pc), now) }
func (p *hashProbe) CoreCycles(c int, cl sim.StallClass, th, pc int, w uint64) {
	p.add("corecycles", uint64(c), uint64(cl), uint64(th), uint64(pc), w)
}
func (p *hashProbe) HandlerFire(th, pc int, now uint64) {
	p.add("handlerfire", uint64(th), uint64(pc), now)
}
func (p *hashProbe) RAInflight(ra, n, loads int, now uint64) {
	p.add("rainflight", uint64(ra), uint64(n), uint64(loads), now)
}
func (p *hashProbe) EndTiming(s *sim.Stats) { p.add("end", s.Cycles, s.Issued) }

func (p *hashProbe) digest() *probeDigest {
	return &probeDigest{Events: p.events, Digest: fmt.Sprintf("%016x", p.h.Sum64())}
}

// countingCtx reports cancellation from its n-th Err poll on, so a timing
// run aborts at a deterministic cycle.
type countingCtx struct {
	context.Context
	n int
}

func (c *countingCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// deadlockMachine deadlocks only in the timing phase: the producer fills
// "data" past its capacity before signalling "go", which the consumer
// waits on before draining "data".
func deadlockMachine() *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(1))
	q1 := m.AddQueue("data")
	q2 := m.AddQueue("go")
	loop := func(b *isa.Builder, n int64, body func()) {
		i := b.Const(0)
		lim := b.Const(n)
		b.Label("loop")
		b.BrZ(b.Op2(isa.OpICmpLT, i, lim), "done")
		body()
		b.OpImmTo(i, isa.OpIAddImm, i, 1)
		b.Jmp("loop")
		b.Label("done")
	}
	p := isa.NewBuilder("producer")
	one := p.Const(1)
	loop(p, 100, func() { p.Enq(q1, one) })
	p.Enq(q2, one)
	p.Halt()
	c := isa.NewBuilder("consumer")
	c.Deq(q2)
	loop(c, 100, func() { c.Deq(q1) })
	c.Halt()
	m.AddStage(&sim.Stage{Prog: p.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 0}})
	m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: arch.ThreadID{Core: 0, Thread: 1}})
	m.Cfg.IdleLimit = 5000
	return m
}

type goldenCase struct {
	name string
	run  func(t *testing.T) goldenRecord
}

func goldenCases() []goldenCase {
	benches := workloads.Benchmarks(workloads.ScaleTest)
	byName := map[string]*workloads.Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	def := arch.DefaultConfig(1)
	// static runs family's static pipeline on its smallest test input.
	static := func(fam string, commopt bool, cfg arch.Config, setup func(*sim.Machine)) func(*testing.T) goldenRecord {
		return func(t *testing.T) goldenRecord {
			b := byName[fam]
			return runPipeline(t, compileFamily(t, b, commopt, def), cfg, smallest(t, b), setup)
		}
	}
	var cases []goldenCase

	// Every family's static pipeline, commopt off and on (on SpMM the
	// latter adds multicast fan-out), on its two smallest test inputs.
	for _, b := range benches {
		for _, name := range smallestTests[b.Name] {
			for _, co := range []bool{false, true} {
				b, name, co := b, name, co
				label := b.Name + "_" + name
				if co {
					label += "_commopt"
				}
				cases = append(cases, goldenCase{label, func(t *testing.T) goldenRecord {
					return runPipeline(t, compileFamily(t, b, co, def), def, testInput(t, b, name), nil)
				}})
			}
		}
	}

	cases = append(cases, goldenCase{"manual_BFS", func(t *testing.T) goldenRecord {
		b := byName["BFS"]
		pipe, err := b.Manual()
		if err != nil {
			t.Fatalf("manual BFS: %v", err)
		}
		return runPipeline(t, pipe, def, smallest(t, b), nil)
	}})

	// Data-parallel workers synchronize through barriers, on one core and
	// across four.
	for _, dp := range []struct {
		fam   string
		cores int
	}{{"BFS", 1}, {"CC", 4}} {
		dp := dp
		cases = append(cases, goldenCase{fmt.Sprintf("dataparallel_%s_%dcore", dp.fam, dp.cores), func(t *testing.T) goldenRecord {
			b := byName[dp.fam]
			pipe, err := workloads.BuildDataParallel(b.DPSource, 4, 4/dp.cores)
			if err != nil {
				t.Fatalf("data-parallel %s: %v", dp.fam, err)
			}
			in := smallest(t, b)
			inst, err := pipeline.Instantiate(pipe, arch.DefaultConfig(dp.cores), in.BindDP(4))
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			st, err := inst.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := in.Verify(inst); err != nil {
				t.Fatalf("verify: %v", err)
			}
			return record(st, nil)
		}})
	}

	// Non-default machines, on a control-heavy and a load-heavy family.
	configs := []struct {
		name string
		mod  func(*arch.Config)
	}{
		{"window16", func(c *arch.Config) { c.WindowSize = 16 }},
		{"window256", func(c *arch.Config) { c.WindowSize = 256 }},
		{"issue2", func(c *arch.Config) { c.IssueWidth = 2 }},
		{"mshr0", func(c *arch.Config) { c.MSHRs = 0 }},
		{"mshr2", func(c *arch.Config) { c.MSHRs = 2 }},
	}
	for _, fam := range []string{"BFS", "PRD"} {
		for _, c := range configs {
			cfg := arch.DefaultConfig(1)
			c.mod(&cfg)
			cases = append(cases, goldenCase{fam + "_" + c.name, static(fam, false, cfg, nil)})
		}
		fam := fam
		cases = append(cases, goldenCase{fam + "_smt1", func(t *testing.T) goldenRecord {
			// One thread per core: the stages spread over four cores.
			cfg := arch.DefaultConfig(4)
			cfg.ThreadsPerCore = 1
			b := byName[fam]
			return runPipeline(t, compileFamily(t, b, false, cfg), cfg, smallest(t, b), nil)
		}})
	}

	// Aborted runs: a cycle budget, a cancellation, and a timing deadlock.
	cases = append(cases, goldenCase{"budget_PRD", static("PRD", false, def, func(m *sim.Machine) {
		m.Cfg.CycleBudget = 20000
	})})
	cases = append(cases, goldenCase{"cancel_PRD", func(t *testing.T) goldenRecord {
		b := byName["PRD"]
		inst, err := pipeline.Instantiate(compileFamily(t, b, false, def), def, smallest(t, b).Bind())
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		ts, err := inst.Machine.RunFunctional()
		if err != nil {
			t.Fatalf("functional: %v", err)
		}
		// The timing loop polls every 4096 cycles from cycle 0 on.
		inst.Machine.Ctx = &countingCtx{Context: context.Background(), n: 5}
		return record(inst.Machine.RunTiming(ts))
	}})
	cases = append(cases, goldenCase{"deadlock", func(t *testing.T) goldenRecord {
		st, err := deadlockMachine().Run()
		if err == nil {
			t.Fatal("expected a timing deadlock")
		}
		return record(st, err)
	}})

	// Each timing fault hook, on a family that exercises it.
	cases = append(cases,
		goldenCase{"fault_memlatency", static("PRD", false, def, func(m *sim.Machine) {
			m.Faults = &sim.TimingFaults{MemLatency: func(n uint64) uint64 {
				if n%7 == 3 {
					return 60
				}
				return 0
			}}
		})},
		goldenCase{"fault_ctrldelay", static("BFS", false, def, func(m *sim.Machine) {
			m.Faults = &sim.TimingFaults{CtrlDelay: func(q int, n uint64) uint64 {
				return uint64(q+1) * (n % 3) * 5
			}}
		})},
		goldenCase{"fault_threadstall", static("CC", false, def, func(m *sim.Machine) {
			m.Faults = &sim.TimingFaults{ThreadStall: func(c, slot int, now uint64) bool {
				return (now/37+uint64(slot))%4 == 0
			}}
		})},
	)

	// The probe stream, with interval samples.
	for _, fam := range []string{"BFS", "CC"} {
		fam := fam
		cases = append(cases, goldenCase{"probe_" + fam, func(t *testing.T) goldenRecord {
			p := newHashProbe()
			rec := static(fam, true, def, func(m *sim.Machine) {
				m.Probe = p
				m.Cfg.TelemetryInterval = 1000
			})(t)
			rec.Probe = p.digest()
			return rec
		}})
	}
	return cases
}

// TestTimingGolden compares every case's record with testdata/timing.
// Regenerate with -update only when a timing change is intended.
func TestTimingGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := json.MarshalIndent(c.run(t), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "timing", c.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("timing drifted from %s:\n%s", path, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff renders the first differing line of two golden texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
