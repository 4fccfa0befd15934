package native

import (
	"fmt"
	"math"
	"slices"

	"phloem/internal/isa"
	"phloem/internal/mem"
	"phloem/internal/sim"
)

// Stage scheduling states. A stage in sDeq, sEnq, or sSwap resumes by
// re-executing the instruction at its pc, which had no effect when it
// yielded; a stage in sBarrier waits for the scheduler to release it.
const (
	sReady   = iota
	sDeq     // dequeue or peek on an empty ring (blockQ)
	sEnq     // enqueue into a full ring (blockQ)
	sBarrier // parked at OpBarrier
	sSwap    // OpSwapSlots waiting for the RAs to quiesce
	sHalted
)

// stageExec is one stage as a resumable task: its pc, register file, and
// control-value handler table persist across yields.
type stageExec struct {
	e    *engine
	st   *sim.Stage
	pc   int
	regs []sim.Value
	// handler maps queue id to handler pc (-1: none); nil when the
	// program never registers one.
	handler    []int
	handlerVal int64
	state      int
	blockQ     int
}

func newStageExec(e *engine, st *sim.Stage) *stageExec {
	x := &stageExec{e: e, st: st, regs: make([]sim.Value, st.Prog.NumRegs)}
	for _, ri := range st.Init {
		x.regs[ri.Reg] = ri.Val
	}
	if slices.ContainsFunc(st.Prog.Instrs, func(in isa.Instr) bool { return in.Op == isa.OpSetHandler }) {
		x.handler = make([]int, len(e.queues))
		for i := range x.handler {
			x.handler[i] = -1
		}
	}
	return x
}

// trap builds a functional trap with the same message the simulator
// would produce.
func (x *stageExec) trap(pc int, msg string) error {
	return &sim.TrapError{Stage: x.st.Prog.Name, PC: pc, Msg: msg}
}

// turn runs the stage from its pc until it yields, halts, parks at a
// barrier, or has run checkEvery instructions, and returns how many
// instructions it executed (added to the engine's count). Opcode semantics
// are a line-for-line port of the functional engine's runThread.
func (x *stageExec) turn() (int, error) {
	e := x.e
	instrs := x.st.Prog.Instrs
	regs := x.regs
	pc := x.pc
	n := 0

	for n < checkEvery {
		if pc < 0 || pc >= len(instrs) {
			return n, x.trap(pc, "pc out of range")
		}
		in := &instrs[pc]
		nextPC := pc + 1
		switch in.Op {
		case isa.OpNop:
		case isa.OpConst:
			regs[in.Dst] = sim.IntVal(in.Imm)
		case isa.OpMov:
			v := regs[in.A]
			v.Ctrl = false
			regs[in.Dst] = v
		case isa.OpIAdd:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits + regs[in.B].Bits)
		case isa.OpIAddImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits + in.Imm)
		case isa.OpISub:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits - regs[in.B].Bits)
		case isa.OpIMul:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits * regs[in.B].Bits)
		case isa.OpIMulImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits * in.Imm)
		case isa.OpIDiv:
			d := regs[in.B].Bits
			if d == 0 {
				return n, x.trap(pc, "integer division by zero")
			}
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits / d)
		case isa.OpIRem:
			d := regs[in.B].Bits
			if d == 0 {
				return n, x.trap(pc, "integer remainder by zero")
			}
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits % d)
		case isa.OpIAnd:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits & regs[in.B].Bits)
		case isa.OpIAndImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits & in.Imm)
		case isa.OpIOr:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits | regs[in.B].Bits)
		case isa.OpIXor:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits ^ regs[in.B].Bits)
		case isa.OpIShl:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits << uint(regs[in.B].Bits&63))
		case isa.OpIShr:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits >> uint(regs[in.B].Bits&63))
		case isa.OpIShrImm:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits >> uint(in.Imm&63))
		case isa.OpICmpEQ:
			regs[in.Dst] = boolVal(regs[in.A].Bits == regs[in.B].Bits)
		case isa.OpICmpNE:
			regs[in.Dst] = boolVal(regs[in.A].Bits != regs[in.B].Bits)
		case isa.OpICmpLT:
			regs[in.Dst] = boolVal(regs[in.A].Bits < regs[in.B].Bits)
		case isa.OpICmpLE:
			regs[in.Dst] = boolVal(regs[in.A].Bits <= regs[in.B].Bits)
		case isa.OpICmpGT:
			regs[in.Dst] = boolVal(regs[in.A].Bits > regs[in.B].Bits)
		case isa.OpICmpGE:
			regs[in.Dst] = boolVal(regs[in.A].Bits >= regs[in.B].Bits)
		case isa.OpFAdd:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() + regs[in.B].Float())
		case isa.OpFSub:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() - regs[in.B].Float())
		case isa.OpFMul:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() * regs[in.B].Float())
		case isa.OpFDiv:
			regs[in.Dst] = sim.FloatVal(regs[in.A].Float() / regs[in.B].Float())
		case isa.OpFNeg:
			regs[in.Dst] = sim.FloatVal(-regs[in.A].Float())
		case isa.OpFAbs:
			regs[in.Dst] = sim.FloatVal(math.Abs(regs[in.A].Float()))
		case isa.OpFCmpEQ:
			regs[in.Dst] = boolVal(regs[in.A].Float() == regs[in.B].Float())
		case isa.OpFCmpNE:
			regs[in.Dst] = boolVal(regs[in.A].Float() != regs[in.B].Float())
		case isa.OpFCmpLT:
			regs[in.Dst] = boolVal(regs[in.A].Float() < regs[in.B].Float())
		case isa.OpFCmpLE:
			regs[in.Dst] = boolVal(regs[in.A].Float() <= regs[in.B].Float())
		case isa.OpFCmpGT:
			regs[in.Dst] = boolVal(regs[in.A].Float() > regs[in.B].Float())
		case isa.OpFCmpGE:
			regs[in.Dst] = boolVal(regs[in.A].Float() >= regs[in.B].Float())
		case isa.OpI2F:
			regs[in.Dst] = sim.FloatVal(float64(regs[in.A].Bits))
		case isa.OpF2I:
			regs[in.Dst] = sim.IntVal(int64(regs[in.A].Float()))

		case isa.OpLoad:
			a := e.m.Slots[in.Slot]
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				return n, x.trap(pc, fmt.Sprintf("load %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
			}
			regs[in.Dst] = loadValue(a, idx)
		case isa.OpPrefetch:
			// Out-of-bounds prefetches are dropped, as hardware would; a
			// software interpreter has nothing useful to prefetch into.
		case isa.OpStore:
			a := e.m.Slots[in.Slot]
			idx := regs[in.A].Bits
			if !a.InBounds(idx) {
				return n, x.trap(pc, fmt.Sprintf("store %s[%d] out of bounds (len %d)", a.Name, idx, a.Len()))
			}
			storeValue(a, idx, regs[in.B])

		case isa.OpEnq:
			// A fan-out enqueue pushes to every destination or to none.
			if q := e.fullDest(in.Q); q >= 0 {
				return x.yield(pc, n, sEnq, q)
			}
			e.queues[in.Q].push(regs[in.A])
			if e.fan != nil {
				for _, d := range e.fan[in.Q] {
					e.queues[d].push(regs[in.A])
				}
			}
		case isa.OpEnqCtrl, isa.OpEnqCtrlV:
			q := &e.queues[in.Q]
			if q.full() {
				return x.yield(pc, n, sEnq, in.Q)
			}
			code := in.Imm
			if in.Op == isa.OpEnqCtrlV {
				code = regs[in.A].Bits
			}
			q.push(sim.CtrlVal(code))
		case isa.OpDeq:
			q := &e.queues[in.Q]
			if q.n == 0 {
				return x.yield(pc, n, sDeq, in.Q)
			}
			v := q.pop()
			if x.handler != nil && x.handler[in.Q] >= 0 && v.Ctrl {
				x.handlerVal = v.Bits
				nextPC = x.handler[in.Q]
			} else {
				regs[in.Dst] = v
			}
		case isa.OpPeek:
			// The token stays in the ring, so it still counts as leftover
			// if it is never dequeued.
			q := &e.queues[in.Q]
			if q.n == 0 {
				return x.yield(pc, n, sDeq, in.Q)
			}
			regs[in.Dst] = q.buf[q.head]
		case isa.OpIsCtrl:
			regs[in.Dst] = boolVal(regs[in.A].Ctrl)
		case isa.OpCtrlCode:
			regs[in.Dst] = sim.IntVal(regs[in.A].Bits)
		case isa.OpSetHandler:
			x.handler[in.Q] = in.Target
		case isa.OpHandlerVal:
			regs[in.Dst] = sim.IntVal(x.handlerVal)

		case isa.OpBr:
			if regs[in.A].Bits != 0 {
				nextPC = in.Target
			}
		case isa.OpBrZ:
			if regs[in.A].Bits == 0 {
				nextPC = in.Target
			}
		case isa.OpJmp:
			nextPC = in.Target
		case isa.OpHalt:
			n++
			e.live--
			return x.yield(pc, n, sHalted, 0)
		case isa.OpBarrier:
			// The barrier counts as executed now; the scheduler steps the
			// pc past it on release.
			n++
			e.waiting++
			return x.yield(pc, n, sBarrier, 0)
		case isa.OpSwapSlots:
			// Quiesce RAs first so in-flight accelerator work observes the
			// pre-swap bindings, matching the functional drain-then-swap.
			if !e.rasIdle() {
				return x.yield(pc, n, sSwap, 0)
			}
			s := e.m.Slots
			s[in.Slot], s[in.Slot2] = s[in.Slot2], s[in.Slot]
		default:
			return n, x.trap(pc, fmt.Sprintf("unimplemented op %v", in.Op))
		}
		pc = nextPC
		n++
	}
	return x.yield(pc, n, sReady, 0)
}

// yield parks the stage in state at pc, which re-executes on resume
// unless the stage halted or reached a barrier, and accounts the n
// instructions the turn ran.
func (x *stageExec) yield(pc, n, state, q int) (int, error) {
	x.pc, x.state, x.blockQ = pc, state, q
	x.e.instrs += uint64(n)
	return n, nil
}

// fullDest returns the first full ring among q and its fan-out
// destinations, or -1 when all of them have space.
func (e *engine) fullDest(q int) int {
	if e.queues[q].full() {
		return q
	}
	if e.fan != nil {
		for _, d := range e.fan[q] {
			if e.queues[d].full() {
				return d
			}
		}
	}
	return -1
}

func boolVal(b bool) sim.Value {
	if b {
		return sim.IntVal(1)
	}
	return sim.IntVal(0)
}

func loadValue(a *mem.Array, idx int64) sim.Value {
	if a.Kind == mem.F64 {
		return sim.FloatVal(a.LoadFloat(idx))
	}
	return sim.IntVal(a.LoadInt(idx))
}

func storeValue(a *mem.Array, idx int64, v sim.Value) {
	if a.Kind == mem.F64 {
		a.StoreFloat(idx, v.Float())
		return
	}
	a.StoreInt(idx, v.Bits)
}
