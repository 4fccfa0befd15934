package native_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/isa"
	"phloem/internal/mem"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// Machine-level tests for the drain/termination protocol, the guardrails,
// and the sentinel-error contract. Machines are built twice (engines
// consume queue/slot state) so functional and native runs never share
// anything but the build recipe.

func thread(n int) arch.ThreadID { return arch.ThreadID{Core: 0, Thread: n} }

// diffMachines runs the same machine recipe through both backends and
// requires matching instruction counts, leftovers, and memory.
func diffMachines(t *testing.T, name string, build func() *sim.Machine) {
	t.Helper()
	fm := build()
	ts, err := fm.RunFunctional()
	if err != nil {
		t.Fatalf("%s: functional: %v", name, err)
	}
	nm := build()
	st, err := native.Run(nm, native.Options{})
	if err != nil {
		t.Fatalf("%s: native: %v", name, err)
	}
	if st.Instructions != ts.Instructions {
		t.Errorf("%s: native %d instructions, functional %d", name, st.Instructions, ts.Instructions)
	}
	for q := range st.Leftover {
		if st.Leftover[q] != ts.Leftover[q] {
			t.Errorf("%s: q%d leftover %d native vs %d functional", name, q, st.Leftover[q], ts.Leftover[q])
		}
	}
	compareSpaces(t, name, fm.Space, nm.Space)
}

// TestEmptyPipeline: a machine whose only stage immediately halts, and a
// machine with no stages at all.
func TestEmptyPipeline(t *testing.T) {
	diffMachines(t, "halt-only", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		b := isa.NewBuilder("empty")
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	})
	m := sim.NewMachine(arch.DefaultConfig(1))
	st, err := native.Run(m, native.Options{})
	if err != nil {
		t.Fatalf("no-stage machine: %v", err)
	}
	if st.Instructions != 0 {
		t.Errorf("no-stage machine executed %d instructions", st.Instructions)
	}
}

// TestHandlerOnlyStage: a consumer that does nothing but loop on deq with
// a registered control handler as its sole exit path.
func TestHandlerOnlyStage(t *testing.T) {
	diffMachines(t, "handler-only", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("out", mem.I64, 2)
		so := m.AddSlot("out", out)
		q := m.AddQueue("work")

		p := isa.NewBuilder("producer")
		for i := int64(1); i <= 3; i++ {
			v := p.Const(i * 10)
			p.Enq(q, v)
		}
		p.EnqCtrl(q, arch.CtrlEnd)
		p.Halt()
		m.AddStage(&sim.Stage{Prog: p.MustBuild(), Thread: thread(0)})

		c := isa.NewBuilder("consumer")
		c.SetHandler(q, "end")
		acc := c.Const(0)
		zero := c.Const(0)
		one := c.Const(1)
		c.Label("loop")
		v := c.Deq(q)
		c.Op2To(acc, isa.OpIAdd, acc, v)
		c.Jmp("loop")
		c.Label("end")
		c.Store(so, zero, acc)
		hv := c.HandlerVal()
		c.Store(so, one, hv)
		c.Halt()
		m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: thread(1)})
		return m
	})
}

// TestOverSentQueue: tokens left in a queue nobody consumes. Within the
// queue's capacity both backends finish and report the same leftovers;
// past the capacity the native backend (bounded rings, like the timing
// model) backpressure-deadlocks where the unbounded functional phase only
// reports leftovers — the documented divergence.
func TestOverSentQueue(t *testing.T) {
	build := func(tokens int64) func() *sim.Machine {
		return func() *sim.Machine {
			m := sim.NewMachine(arch.DefaultConfig(1))
			m.Queues = append(m.Queues, arch.QueueSpec{Name: "sink", Depth: 8})
			b := isa.NewBuilder("producer")
			i := b.Const(0)
			n := b.Const(tokens)
			b.Label("loop")
			done := b.Op2(isa.OpICmpGE, i, n)
			b.Br(done, "out")
			b.Enq(0, i)
			b.OpImmTo(i, isa.OpIAddImm, i, 1)
			b.Jmp("loop")
			b.Label("out")
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
			return m
		}
	}
	diffMachines(t, "oversend-within-cap", build(4))

	// Past capacity: functional succeeds with 12 leftovers, native blocks
	// on the full ring with no consumer and the scheduler reports it.
	ts, err := build(12)().RunFunctional()
	if err != nil {
		t.Fatalf("functional oversend: %v", err)
	}
	if ts.Leftover[0] != 12 {
		t.Fatalf("functional leftover = %d, want 12", ts.Leftover[0])
	}
	nm := build(12)()
	_, err = native.Run(nm, native.Options{})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("native oversend past capacity: got %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "enq-full") {
		t.Errorf("deadlock snapshot should report enq-full, got: %v", err)
	}
	requireBlockedAt(t, nm, err, isa.OpEnq)
}

// requireBlockedAt checks that err is a native deadlock whose snapshot
// places every unfinished stage of m at its (only) instruction of kind op.
func requireBlockedAt(t *testing.T, m *sim.Machine, err error, op isa.Op) {
	t.Helper()
	var de *sim.DeadlockError
	if !errors.As(err, &de) || de.Snapshot.Phase != "native" {
		t.Fatalf("expected a native-phase DeadlockError, got %#v", err)
	}
	if len(de.Snapshot.Stages) == 0 {
		t.Fatalf("snapshot lists no blocked stages: %v", err)
	}
	for _, w := range de.Snapshot.Stages {
		want := int32(-1)
		for _, st := range m.Stages {
			if st.Prog.Name != w.Stage {
				continue
			}
			for pc, in := range st.Prog.Instrs {
				if in.Op == op {
					want = int32(pc)
				}
			}
		}
		if want < 0 || w.PC != want {
			t.Errorf("stage %s blocked at pc %d, want the %v at pc %d", w.Stage, w.PC, op, want)
		}
	}
}

// TestZeroProducerDeq: dequeuing a queue no stage or RA ever feeds fails
// immediately as a deadlock, on both backends, with the queue named in the
// snapshot.
func TestZeroProducerDeq(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		m.Queues = append(m.Queues, arch.QueueSpec{Name: "never_fed"})
		b := isa.NewBuilder("starved")
		b.DeqTo(b.Reg(), 0)
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	}
	_, ferr := build().RunFunctional()
	if !errors.Is(ferr, sim.ErrDeadlock) {
		t.Fatalf("functional: got %v, want ErrDeadlock", ferr)
	}
	_, nerr := native.Run(build(), native.Options{})
	if !errors.Is(nerr, sim.ErrDeadlock) {
		t.Fatalf("native: got %v, want ErrDeadlock", nerr)
	}
	if !strings.Contains(nerr.Error(), "never_fed") {
		t.Errorf("snapshot should name the starved queue, got: %v", nerr)
	}
	var de *sim.DeadlockError
	if !errors.As(nerr, &de) || de.Snapshot.Phase != "native" {
		t.Errorf("expected a native-phase DeadlockError, got %#v", nerr)
	}
}

// TestCrossBlockDeadlock: two stages each waiting for the other's first
// token. Both queues have live producers, so only the scheduler's
// no-progress rule can catch it; the snapshot names each stage's Deq.
func TestCrossBlockDeadlock(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		q0 := m.AddQueue("ab")
		q1 := m.AddQueue("ba")
		mk := func(name string, deqQ, enqQ int, tid int) {
			b := isa.NewBuilder(name)
			v := b.Deq(deqQ)
			b.Enq(enqQ, v)
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(tid)})
		}
		mk("a", q1, q0, 0)
		mk("b", q0, q1, 1)
		return m
	}
	_, ferr := build().RunFunctional()
	if !errors.Is(ferr, sim.ErrDeadlock) {
		t.Fatalf("functional: got %v, want ErrDeadlock", ferr)
	}
	nm := build()
	_, nerr := native.Run(nm, native.Options{})
	if !errors.Is(nerr, sim.ErrDeadlock) {
		t.Fatalf("native: got %v, want ErrDeadlock", nerr)
	}
	if !strings.Contains(nerr.Error(), "deq-empty") {
		t.Errorf("snapshot should report deq-empty stages, got: %v", nerr)
	}
	requireBlockedAt(t, nm, nerr, isa.OpDeq)
}

// infiniteLoop builds a machine that never terminates and touches no
// queues: the livelock/cancellation test subject.
func infiniteLoop(traceCap int) *sim.Machine {
	m := sim.NewMachine(arch.DefaultConfig(1))
	m.MaxTraceEntries = traceCap
	b := isa.NewBuilder("spin")
	r := b.Const(0)
	b.Label("loop")
	b.OpImmTo(r, isa.OpIAddImm, r, 1)
	b.Jmp("loop")
	b.Halt() // unreachable; the builder requires a trailing halt
	m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
	return m
}

// TestCancellation: Machine.Ctx cancellation mid-run returns the same
// ErrCancelled sentinel family as the simulator, with the native phase.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := infiniteLoop(1 << 40)
	m.Ctx = ctx
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := native.Run(m, native.Options{})
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	var ce *sim.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("not a CancelledError: %#v", err)
	}
	if ce.Phase != "native" {
		t.Errorf("phase = %q, want native", ce.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not preserved: %v", err)
	}
}

// TestPreCancelled: an already-cancelled context aborts promptly.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := infiniteLoop(1 << 40)
	m.Ctx = ctx
	if _, err := native.Run(m, native.Options{}); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
}

// TestWallDeadline: Machine.WallDeadline maps to ErrWallBudget.
func TestWallDeadline(t *testing.T) {
	m := infiniteLoop(1 << 40)
	m.WallDeadline = time.Now().Add(10 * time.Millisecond)
	_, err := native.Run(m, native.Options{})
	if !errors.Is(err, sim.ErrWallBudget) {
		t.Fatalf("got %v, want ErrWallBudget", err)
	}
}

// TestTraceLimitParity: a livelocked program trips the instruction cap on
// both backends with the same sentinel.
func TestTraceLimitParity(t *testing.T) {
	if _, err := infiniteLoop(200_000).RunFunctional(); !errors.Is(err, sim.ErrTraceLimit) {
		t.Fatalf("functional: got %v, want ErrTraceLimit", err)
	}
	if _, err := native.Run(infiniteLoop(200_000), native.Options{}); !errors.Is(err, sim.ErrTraceLimit) {
		t.Fatalf("native: got %v, want ErrTraceLimit", err)
	}
}

// TestTrapParity: a functional trap (division by zero) carries the same
// class, stage, and message on both backends.
func TestTrapParity(t *testing.T) {
	build := func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		b := isa.NewBuilder("divzero")
		z := b.Const(0)
		b.Op2(isa.OpIDiv, z, z)
		b.Halt()
		m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(0)})
		return m
	}
	_, ferr := build().RunFunctional()
	_, nerr := native.Run(build(), native.Options{})
	if !errors.Is(ferr, sim.ErrTrap) || !errors.Is(nerr, sim.ErrTrap) {
		t.Fatalf("trap classes: functional %v, native %v", ferr, nerr)
	}
	if ferr.Error() != nerr.Error() {
		t.Errorf("trap messages differ:\n  functional: %v\n  native:     %v", ferr, nerr)
	}
}

// TestBarrierHaltRelease: a stage halting must release the remaining
// stages' barrier (the live-count rule), exactly like the functional
// scheduler's releaseBarriers.
func TestBarrierHaltRelease(t *testing.T) {
	diffMachines(t, "barrier-halt", func() *sim.Machine {
		m := sim.NewMachine(arch.DefaultConfig(1))
		out := m.Space.Alloc("out", mem.I64, 4)
		so := m.AddSlot("out", out)
		mk := func(name string, slot int, idx, val int64, tid int) {
			b := isa.NewBuilder(name)
			i := b.Const(idx)
			v := b.Const(val)
			b.Store(slot, i, v)
			b.Barrier()
			v2 := b.OpImm(isa.OpIAddImm, v, 100)
			b.Store(slot, i, v2)
			b.Halt()
			m.AddStage(&sim.Stage{Prog: b.MustBuild(), Thread: thread(tid)})
		}
		mk("a", so, 0, 1, 0)
		mk("b", so, 1, 2, 1)
		// c halts without ever reaching a barrier; a and b must still
		// release once c is gone.
		c := isa.NewBuilder("c")
		i := c.Const(2)
		v := c.Const(3)
		c.Store(so, i, v)
		c.Halt()
		m.AddStage(&sim.Stage{Prog: c.MustBuild(), Thread: thread(2)})
		return m
	})
}

// TestCommOptPipelinesNeverDeadlockNatively pins the satellite claim: the
// commopt pass's Q4 capacity-cycle safety argument holds for the native
// bounded rings exactly as for the timing model's bounded queues, so every
// commopt-optimized family pipeline must run to completion natively with
// its inferred capacities, and at least one family must actually carry
// pass-assigned depths (so the test cannot silently assert nothing).
func TestCommOptPipelinesNeverDeadlockNatively(t *testing.T) {
	opt := core.DefaultOptions()
	opt.CommOpt = true
	assigned := 0
	for _, b := range workloads.Benchmarks(workloads.ScaleTest) {
		prog, err := workloads.CompileSerial(b.SerialSource)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compile(prog, opt)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, q := range res.Pipeline.Queues {
			if q.DepthByPass {
				assigned++
			}
		}
		in := b.Test[len(b.Test)-1]
		inst, err := pipeline.Instantiate(res.Pipeline, arch.DefaultConfig(1), in.Bind())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := native.Run(inst.Machine, native.Options{}); err != nil {
			t.Errorf("%s: commopt pipeline deadlocked or failed natively: %v", b.Name, err)
			continue
		}
		if err := in.Verify(inst); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if assigned == 0 {
		t.Error("commopt assigned no capacities on any family; the deadlock-freedom claim was not exercised")
	}
}
