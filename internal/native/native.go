// Package native executes a compiled pipeline directly instead of
// simulating it. Like the paper's Pipette core, where a pipeline's stages
// are SMT threads sharing one core and talking through hardware queues,
// every stage and every reference accelerator is a resumable task on one
// cooperative scheduler, and every architectural queue is a bounded ring.
// A stage runs until it would dequeue from an empty ring, enqueue into a
// full one, wait at a barrier, or use up its turn; it then yields with its
// pc and registers intact and resumes at the same instruction. The
// scheduler steps the RAs after every stage turn. It consumes the same
// post-pass sim.Machine the simulator runs — same flattened stage
// programs, queue specs, RA specs, fan-out edges, slot table, and memory
// space — so any pipeline the compiler produces runs on either backend
// unchanged.
//
// Semantics follow the functional simulator exactly where both are
// defined: identical opcode behavior (including Mov clearing the control
// tag and shift-amount masking), identical trap conditions and messages,
// control-value handler fires on dequeue, barrier release when every live
// stage waits, and RA quiescence before OpSwapSlots. Differential tests
// require bit-identical output memory state and equal executed-instruction
// counts against sim.RunFunctional on every workload.
//
// The one deliberate divergence is queue capacity: the functional phase
// uses unbounded queues, while this backend bounds each ring by
// arch.QueueSpec.Capacity — the same bound the timing model enforces. A
// pipeline that overfills a queue nobody drains therefore backpressures
// and deadlocks here (and in the timing phase) where the functional phase
// would merely report leftovers; the commopt Q4 capacity argument is what
// makes compiler-sized pipelines safe (see DESIGN.md §16).
//
// Failures map onto the simulator's sentinel error family, so callers
// classify native errors with errors.Is against sim.ErrDeadlock,
// sim.ErrTrap, sim.ErrTraceLimit, sim.ErrCancelled, and sim.ErrWallBudget
// exactly as they do for simulated runs. A scheduler pass in which nothing
// moves is a deadlock, detected exactly and at once.
package native

import (
	"fmt"
	"strings"
	"time"

	"phloem/internal/mem"
	"phloem/internal/sim"
)

// checkEvery is how many instructions run between polls of the
// instruction cap, Machine.Ctx, and Machine.WallDeadline — the native
// analogue of sim's amortized interrupt check. It is also the longest
// turn a stage gets, so a stage that never touches a queue cannot starve
// the others or the polls.
const checkEvery = 1024

// Options tunes the native executor. It has no fields; the zero value is
// the only value.
type Options struct{}

// Stats reports a native run. Instructions counts every executed stage
// instruction (including Halt and Barrier, excluding RA micro-events) and
// equals sim.TraceSet.Instructions for the same machine — the
// deterministic cross-backend work metric. Wall is host-dependent.
type Stats struct {
	Instructions uint64
	Wall         time.Duration
	// Leftover is the per-queue count of tokens never consumed, matching
	// sim.TraceSet.Leftover (a peeked-but-never-dequeued token still counts
	// as in its queue).
	Leftover []int
	Stages   int
	RAs      int
	Queues   int
}

func (s *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "native: %d instructions in %v (%d stages, %d RAs, %d queues)\n",
		s.Instructions, s.Wall, s.Stages, s.RAs, s.Queues)
	left := 0
	for _, n := range s.Leftover {
		left += n
	}
	if left > 0 {
		fmt.Fprintf(&sb, "native: %d leftover queue tokens\n", left)
	}
	return sb.String()
}

// ring is one queue: a FIFO of exactly the queue's capacity.
type ring struct {
	buf        []sim.Value
	head, tail int
	n          int
}

func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) push(v sim.Value) {
	r.buf[r.tail] = v
	if r.tail++; r.tail == len(r.buf) {
		r.tail = 0
	}
	r.n++
}

func (r *ring) pop() sim.Value {
	v := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// engine is the scheduler and shared state of one native run.
type engine struct {
	m      *sim.Machine
	queues []ring
	// fan maps a queue id to the fan-out destinations every data enqueue
	// into it is duplicated to (nil for ordinary queues).
	fan    [][]int
	stages []*stageExec
	ras    []*raExec
	// live counts stages that have not halted; waiting counts the live
	// stages parked at a barrier. The barrier releases when they are equal.
	live, waiting int
	instrs        uint64
	cap           uint64
}

// Run executes the machine's stage programs natively to completion.
// Memory side effects remain in m.Space (and m.Slots reflects any slot
// swaps), exactly as after sim.RunFunctional. m.Ctx, m.WallDeadline, and
// m.MaxTraceEntries are honored with the same sentinel errors as the
// simulator.
func Run(m *sim.Machine, _ Options) (st *Stats, err error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Typed memory-system panics become structured traps, exactly as in
	// the functional engine; anything else is a real bug and propagates.
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(*mem.Error)
			if !ok {
				panic(r)
			}
			st, err = nil, &sim.TrapError{PC: -1, Msg: me.Error()}
		}
	}()
	start := time.Now()
	e := newEngine(m)
	if err := e.run(); err != nil {
		return nil, err
	}
	st = &Stats{
		Instructions: e.instrs,
		Wall:         time.Since(start),
		Leftover:     make([]int, len(e.queues)),
		Stages:       len(e.stages),
		RAs:          len(e.ras),
		Queues:       len(e.queues),
	}
	for q := range e.queues {
		st.Leftover[q] = e.queues[q].n
	}
	return st, nil
}

func newEngine(m *sim.Machine) *engine {
	e := &engine{m: m, cap: uint64(m.MaxTraceEntries)}
	if e.cap == 0 {
		e.cap = 64 << 20
	}
	e.queues = make([]ring, len(m.Queues))
	total := 0
	for q := range m.Queues {
		total += m.Queues[q].Capacity(m.Cfg.QueueDepth)
	}
	backing := make([]sim.Value, total)
	for q := range m.Queues {
		c := m.Queues[q].Capacity(m.Cfg.QueueDepth)
		e.queues[q].buf, backing = backing[:c:c], backing[c:]
	}
	if len(m.FanOuts) > 0 {
		e.fan = make([][]int, len(m.Queues))
		for _, f := range m.FanOuts {
			e.fan[f.Src] = f.Dst
		}
	}
	for _, st := range m.Stages {
		e.stages = append(e.stages, newStageExec(e, st))
	}
	for i := range m.RAs {
		e.ras = append(e.ras, &raExec{spec: &m.RAs[i]})
	}
	e.live = len(e.stages)
	return e
}

// run schedules the stages round-robin, stepping the RAs after every
// stage turn that ran, until every stage has halted and the RAs are idle.
// A turn that runs no instruction changes nothing, and the RAs reach a
// fixed point after every turn that does; so a pass in which no stage
// runs and no barrier releases leaves the whole state unchanged, can
// never be followed by one that makes progress, and is reported as a
// deadlock at once.
func (e *engine) run() error {
	if err := e.poll(); err != nil {
		return err
	}
	nextPoll := e.instrs + checkEvery
	for {
		progress := false
		for _, x := range e.stages {
			if x.state == sHalted || x.state == sBarrier {
				continue
			}
			n, err := x.turn()
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			progress = true
			if err := e.stepRAs(); err != nil {
				return err
			}
			if e.instrs >= nextPoll {
				if err := e.poll(); err != nil {
					return err
				}
				nextPoll = e.instrs + checkEvery
			}
		}
		if e.waiting > 0 && e.waiting == e.live {
			e.releaseBarrier()
			progress = true
		}
		if e.live == 0 && e.rasIdle() {
			return nil
		}
		if !progress {
			return &sim.DeadlockError{Snapshot: e.snapshot()}
		}
	}
}

// poll enforces the instruction cap (the livelock guard, the functional
// trace cap's analogue) and the cooperative abort sources.
func (e *engine) poll() error {
	if e.instrs > e.cap {
		return &sim.TraceLimitError{Entries: e.instrs, Limit: e.cap}
	}
	if e.m.Ctx != nil {
		if err := e.m.Ctx.Err(); err != nil {
			return &sim.CancelledError{Phase: "native", Cause: err}
		}
	}
	if !e.m.WallDeadline.IsZero() && time.Now().After(e.m.WallDeadline) {
		return &sim.WallBudgetError{Phase: "native"}
	}
	return nil
}

// releaseBarrier steps every waiting stage past its barrier.
func (e *engine) releaseBarrier() {
	for _, x := range e.stages {
		if x.state == sBarrier {
			x.state = sReady
			x.pc++
		}
	}
	e.waiting = 0
}

// stepRAs steps every RA until none can move. Repeating the round
// matters only when one RA feeds another.
func (e *engine) stepRAs() error {
	for {
		moved := false
		for _, r := range e.ras {
			ok, err := r.step(e)
			if err != nil {
				return err
			}
			moved = moved || ok
		}
		if !moved {
			return nil
		}
	}
}

// rasIdle reports whether every token sent to every RA has been processed
// and no SCAN range is partly emitted — the quiescence OpSwapSlots waits
// for, so in-flight accelerator work observes pre-swap bindings.
func (e *engine) rasIdle() bool {
	for _, r := range e.ras {
		if e.queues[r.spec.InQ].n > 0 || r.busy() {
			return false
		}
	}
	return true
}

// snapshot captures the exact wait-for state of a deadlocked run: each
// unfinished stage's blocking instruction and what it waits on, and every
// queue's occupancy.
func (e *engine) snapshot() *sim.WaitForSnapshot {
	s := &sim.WaitForSnapshot{Phase: "native"}
	for _, x := range e.stages {
		if x.state == sHalted {
			continue
		}
		w := sim.StageWait{
			Stage:   x.st.Prog.Name,
			Thread:  x.st.Thread,
			PC:      int32(x.pc),
			Fetched: x.pc,
			Total:   len(x.st.Prog.Instrs),
		}
		switch x.state {
		case sDeq:
			w.State = "deq-empty"
			w.Queue = e.queueWait(x.blockQ)
		case sEnq:
			w.State = "enq-full"
			w.Queue = e.queueWait(x.blockQ)
		case sBarrier:
			w.State = "barrier"
		default:
			w.State = "other"
		}
		s.Stages = append(s.Stages, w)
	}
	for q := range e.queues {
		s.Queues = append(s.Queues, *e.queueWait(q))
	}
	return s
}

func (e *engine) queueWait(q int) *sim.QueueWait {
	r := &e.queues[q]
	return &sim.QueueWait{Q: q, Name: e.m.Queues[q].Name, Len: r.n, Cap: len(r.buf)}
}
