package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/effects"
	"phloem/internal/ir"
	"phloem/internal/lower"
	"phloem/internal/native"
	"phloem/internal/obs"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/source"
	"phloem/internal/taco"
	"phloem/internal/verify"
	"phloem/internal/workloads"
)

// traceCap is the trace headroom internal/bench gives training and
// native-comparison runs.
const traceCap = 256 << 20

// compiled is a family's pipeline for one input.
type compiled struct {
	label string
	pipe  *pipeline.Pipeline
	in    *workloads.Input
}

func allFamilies(seed int64) []*family {
	return append(graphFamilies(seed), spmmFamily(seed))
}

// compileFamilies builds every family's static pipeline for the input pick
// selects.
func compileFamilies(fams []*family, opt core.Options, pick func(*family) *workloads.Input) ([]compiled, error) {
	var out []compiled
	for _, f := range fams {
		prog, err := workloads.CompileSerial(f.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		res, err := core.Compile(prog, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		in := pick(f)
		out = append(out, compiled{f.name + "/" + in.Name, res.Pipeline, in})
	}
	return out, nil
}

// instantiate binds a fresh copy of the input into a new machine.
func instantiate(t *tracer, pipe *pipeline.Pipeline, in *workloads.Input) (*pipeline.Instance, error) {
	b := in.Bind()
	id := t.begin("pipeline.instantiate")
	inst, err := pipeline.Instantiate(pipe, arch.DefaultConfig(1), b)
	t.end(id)
	return inst, err
}

// verifyOutputs checks an instance against the input's Go reference.
func verifyOutputs(t *tracer, in *workloads.Input, inst *pipeline.Instance) error {
	id := t.begin("workloads.verify")
	defer t.end(id)
	if err := in.Verify(inst); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// allocBytes reads the heap's cumulative allocation. It stops the world,
// so only traced rounds call it.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runMachine runs the functional and the timing simulation. Untraced
// rounds call Machine.Run, the public entry point; traced rounds call its
// two phases separately to time them.
func runMachine(t *tracer, r *roundResult, m *sim.Machine) (*sim.Stats, error) {
	var st *sim.Stats
	var err error
	if t.on {
		a0 := allocBytes()
		id := t.begin("sim.functional")
		ts, ferr := m.RunFunctional()
		t.end(id)
		r.add("functional_alloc", float64(allocBytes()-a0))
		err = ferr
		if err == nil {
			r.add("functional_instr", float64(ts.Instructions))
			r.add("trace_entries", float64(traceEntries(ts)))
			id = t.begin("sim.timing")
			st, err = m.RunTiming(ts)
			t.end(id)
		}
	} else {
		st, err = m.Run()
	}
	var cb *sim.CycleBudgetError
	switch {
	case err == nil:
		r.add("timing_cycles", float64(st.Cycles))
	case errors.As(err, &cb):
		r.add("timing_cycles", float64(cb.Cycles))
		r.add("budget_aborts", 1)
	case errors.Is(err, sim.ErrTraceLimit) || errors.Is(err, sim.ErrWallBudget):
		r.add("budget_aborts", 1)
	}
	return st, err
}

func traceEntries(ts *sim.TraceSet) int {
	n := 0
	for _, th := range ts.Threads {
		n += len(th)
	}
	for _, ra := range ts.RA {
		n += len(ra)
	}
	return n
}

// setupSimulate compiles each family's static pipeline; a round simulates
// each on its input and verifies the outputs, as phloemsim does.
func setupSimulate(seed int64) (roundFunc, error) {
	runs, err := compileFamilies(allFamilies(seed), core.DefaultOptions(),
		func(f *family) *workloads.Input { return f.simulate })
	if err != nil {
		return nil, err
	}
	return func(t *tracer, r *roundResult) {
		for _, c := range runs {
			// Each simulation leaves hundreds of MB of trace behind; collect
			// it outside the timed operation so every operation starts from
			// the same heap and the peak resident size repeats.
			runtime.GC()
			done := r.op(t, "simulate "+c.label)
			st, err := simulateOne(t, r, c)
			done()
			if err != nil {
				r.fail(c.label, err)
				continue
			}
			b := st.TotalBreakdown()
			comp := []struct {
				key string
				v   uint64
			}{
				{"issue_cycles", b.Issue}, {"backend_stall_cycles", b.Backend},
				{"queue_stall_cycles", b.Queue}, {"other_stall_cycles", b.Other},
				{"mispredicts", st.Mispredicts}, {"handler_fires", st.HandlerFires},
				{"ra_loads", st.RALoads}, {"l1_misses", st.Cache.L1Misses},
				{"l2_misses", st.Cache.L2Misses}, {"l3_misses", st.Cache.L3Misses},
				{"mem_accesses", st.Cache.MemAccesses},
			}
			sig := fmt.Sprintf("%s cycles=%d instructions=%d", c.label, st.Cycles, st.Instructions)
			for _, x := range comp {
				r.add(x.key, float64(x.v))
				sig += fmt.Sprintf(" %s=%d", x.key, x.v)
			}
			r.sig = append(r.sig, sig)
			r.work += float64(st.Cycles) / 1e6
			r.cost += float64(st.Cycles)
		}
	}, nil
}

func simulateOne(t *tracer, r *roundResult, c compiled) (*sim.Stats, error) {
	inst, err := instantiate(t, c.pipe, c.in)
	if err != nil {
		return nil, err
	}
	st, err := runMachine(t, r, inst.Machine)
	if err != nil {
		return nil, err
	}
	return st, verifyOutputs(t, c.in, inst)
}

// setupAutotune lowers BFS, CC, PRD and Radii; a round runs the
// profile-guided search for each, training on the family's two training
// inputs with trainers equivalent to bench.Trainers that also verify every
// training run. The search runs serially (Parallelism 1), so its spans
// nest on one goroutine.
func setupAutotune(seed int64) (roundFunc, error) {
	type job struct {
		fam  *family
		prog *ir.Prog
	}
	var jobs []job
	for _, f := range graphFamilies(seed) {
		p, err := workloads.CompileSerial(f.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		jobs = append(jobs, job{f, p})
	}
	return func(t *tracer, r *roundResult) {
		for _, j := range jobs {
			done := r.op(t, "autotune "+j.fam.name)
			var bad []error
			opt := core.DefaultOptions()
			opt.Mode = core.Autotune
			opt.Parallelism = 1
			for _, in := range j.fam.train {
				opt.Training = append(opt.Training, trainer(t, r, in, &bad))
			}
			var col *obs.Collector
			if t.on {
				col = obs.NewCollector()
				opt.Observer = obs.Tee{&searchObserver{t: t}, col}
			}
			from := len(t.spans)
			id := t.begin("core.search")
			res, err := core.Compile(j.prog, opt)
			t.end(id)
			if t.on {
				t.reparent(from, id)
				r.searches[j.fam.name] = col
			}
			done()
			if err == nil && len(bad) > 0 {
				err = bad[0]
			}
			if err != nil {
				r.fail("autotune "+j.fam.name, err)
				continue
			}
			accepted := 0
			for _, p := range res.Points {
				if p.Skip == nil {
					accepted++
				}
			}
			r.add("enumerated", float64(res.Enumerated))
			r.add("searched", float64(res.Searched))
			r.add("deduped", float64(res.Deduped))
			r.add("skipped", float64(len(res.Skips)))
			r.add("accepted", float64(accepted))
			r.sig = append(r.sig, fmt.Sprintf("%s train_cycles=%d enumerated=%d searched=%d deduped=%d skipped=%d accepted=%d\n%s",
				j.fam.name, res.TrainCycles, res.Enumerated, res.Searched, res.Deduped, len(res.Skips), accepted,
				res.Pipeline.Describe()))
			r.work += float64(res.Searched)
			r.cost += float64(res.TrainCycles)
		}
	}, nil
}

// trainer measures a candidate on one training input under the search's
// budget. A run that finishes must also produce the reference outputs; a
// mismatch is recorded in bad, since the search would otherwise just skip
// the candidate.
func trainer(t *tracer, r *roundResult, in *workloads.Input, bad *[]error) core.TrainFunc {
	return func(p *pipeline.Pipeline, b core.Budget) (uint64, error) {
		inst, err := instantiate(t, p, in)
		if err != nil {
			return 0, err
		}
		inst.Machine.MaxTraceEntries = traceCap
		b.Apply(inst.Machine)
		st, err := runMachine(t, r, inst.Machine)
		if err != nil {
			return 0, err
		}
		if err := verifyOutputs(t, in, inst); err != nil {
			*bad = append(*bad, fmt.Errorf("%s: %w", in.Name, err))
			return 0, err
		}
		return st.Cycles, nil
	}
}

// setupExecute compiles each family with commopt on, as BENCH_native.json
// does; a round runs the native backend and the functional simulator on
// separate instances of the family's largest test input, verifies both,
// and requires equal dynamic instruction counts.
func setupExecute(seed int64) (roundFunc, error) {
	opt := core.DefaultOptions()
	opt.CommOpt = true
	runs, err := compileFamilies(allFamilies(seed), opt,
		func(f *family) *workloads.Input { return f.largest })
	if err != nil {
		return nil, err
	}
	return func(t *tracer, r *roundResult) {
		for _, c := range runs {
			runtime.GC() // as in simulate
			done := r.op(t, "native "+c.label)
			nInstr, err := executeNative(t, r, c)
			done()
			if err != nil {
				r.fail(c.label+" native", err)
			}
			runtime.GC()
			done = r.op(t, "functional "+c.label)
			fInstr, ferr := executeFunctional(t, r, c)
			done()
			if ferr != nil {
				r.fail(c.label+" functional", ferr)
			}
			if err != nil || ferr != nil {
				continue
			}
			if nInstr != fInstr {
				r.fail(c.label, fmt.Errorf("native executed %d instructions, functional %d", nInstr, fInstr))
				continue
			}
			r.add("native_instr", float64(nInstr))
			r.sig = append(r.sig, fmt.Sprintf("%s instructions=%d", c.label, nInstr))
			r.work += float64(nInstr) / 1e6
			r.cost += float64(nInstr)
		}
	}, nil
}

func executeNative(t *tracer, r *roundResult, c compiled) (uint64, error) {
	inst, err := instantiate(t, c.pipe, c.in)
	if err != nil {
		return 0, err
	}
	inst.Machine.MaxTraceEntries = traceCap
	var a0 uint64
	if t.on {
		a0 = allocBytes()
	}
	t0 := time.Now()
	id := t.begin("native.run")
	st, err := native.Run(inst.Machine, native.Options{})
	t.end(id)
	r.workTime += time.Since(t0)
	if t.on {
		r.add("native_alloc", float64(allocBytes()-a0))
	}
	if err != nil {
		return 0, err
	}
	return st.Instructions, verifyOutputs(t, c.in, inst)
}

func executeFunctional(t *tracer, r *roundResult, c compiled) (uint64, error) {
	inst, err := instantiate(t, c.pipe, c.in)
	if err != nil {
		return 0, err
	}
	inst.Machine.MaxTraceEntries = traceCap
	var a0 uint64
	if t.on {
		a0 = allocBytes()
	}
	id := t.begin("sim.functional")
	ts, err := inst.Machine.RunFunctional()
	t.end(id)
	if t.on {
		r.add("functional_alloc", float64(allocBytes()-a0))
	}
	if err != nil {
		return 0, err
	}
	r.add("functional_instr", float64(ts.Instructions))
	r.add("trace_entries", float64(traceEntries(ts)))
	return ts.Instructions, verifyOutputs(t, c.in, inst)
}

// kernel is one source the compile workload compiles.
type kernel struct {
	name, src string
}

// compileCase is a kernel compiled with commopt off or on.
type compileCase struct {
	kernel
	commOpt bool
	// describe is the pipeline the set-up compile produced; every round
	// must reproduce it.
	describe string
}

// setupCompile emits the Taco kernels and compiles every kernel once for
// reference; a round runs the front end, core.Compile, and the verifier,
// cost model and commopt analyses on every kernel, commopt off and on.
func setupCompile(seed int64) (roundFunc, error) {
	ks := []kernel{
		{"BFS", workloads.BFSSource}, {"CC", workloads.CCSource}, {"PRD", workloads.PRDSource},
		{"Radii", workloads.RadiiSource}, {"SpMM", workloads.SpMMSource},
	}
	for _, k := range taco.Kernels() {
		src, err := taco.Emit(k)
		if err != nil {
			return nil, fmt.Errorf("taco %s: %w", k, err)
		}
		ks = append(ks, kernel{"taco-" + string(k), src})
	}
	var cases []*compileCase
	codeSize := 0
	ref := newTracer(false)
	for _, k := range ks {
		for _, on := range []bool{false, true} {
			c := &compileCase{kernel: k, commOpt: on}
			pl, err := compileOne(ref, c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label(), err)
			}
			n, err := instructions(pl)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label(), err)
			}
			c.describe = pl.Describe()
			codeSize += n
			cases = append(cases, c)
		}
	}
	return func(t *tracer, r *roundResult) {
		for _, c := range cases {
			done := r.op(t, "compile "+c.label())
			pl, err := compileOne(t, c)
			if err == nil && pl.Describe() != c.describe {
				err = fmt.Errorf("pipeline differs from the set-up compile:\n%s", pl.Describe())
			}
			done()
			r.work++
			if err != nil {
				r.fail(c.label(), err)
			}
		}
		r.cost = float64(codeSize)
		r.sig = []string{fmt.Sprintf("code_size=%d", codeSize)}
	}, nil
}

func (c *compileCase) label() string {
	if c.commOpt {
		return c.name + "+commopt"
	}
	return c.name
}

// compileOne runs the front end and core.Compile (the steps of
// core.CompileSource, each timed), then checks the result with the
// verifier and analyses it with the cost model and commopt.
func compileOne(t *tracer, c *compileCase) (*pipeline.Pipeline, error) {
	id := t.begin("source.parse")
	fn, err := source.Parse(c.src)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("source.check")
	err = source.Check(fn)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("effects.analyze")
	eff := effects.Analyze(fn)
	t.end(id)
	if err := eff.Err(); err != nil {
		return nil, err
	}
	id = t.begin("lower.from_ast")
	prog, err := lower.FromAST(fn)
	t.end(id)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	opt.CommOpt = c.commOpt
	name := "core.compile"
	if c.commOpt {
		name = "core.compile_commopt"
	}
	id = t.begin(name)
	res, err := core.Compile(prog, opt)
	t.end(id)
	if err != nil {
		return nil, err
	}
	pl := res.Pipeline
	id = t.begin("verify.check")
	rep := verify.Check(pl)
	t.end(id)
	if rep.HasErrors() {
		return nil, fmt.Errorf("verifier: %s", rep)
	}
	cfg := arch.DefaultConfig(1)
	id = t.begin("costmodel.analyze")
	_, err = costmodel.Analyze(pl, cfg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("commopt.analyze")
	_, err = commopt.Analyze(pl, cfg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// instructions is the pipeline's static code size: the flattened
// instructions of every stage.
func instructions(pl *pipeline.Pipeline) (int, error) {
	n := 0
	for _, st := range pl.Stages {
		p, err := pipeline.FlattenStage(pl, st)
		if err != nil {
			return 0, err
		}
		n += len(p.Instrs)
	}
	return n, nil
}
