package native

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/mem"
	"phloem/internal/sim"
)

// raExec is one reference accelerator as a resumable task. Token
// semantics (INDIRECT per-index loads, SCAN [start,end) range streaming
// with optional EmitNext group markers, control pass-through, and trap
// conditions) match the functional engine's propagateRAs; the difference
// is that a full output ring pauses the RA, so a SCAN range may be emitted
// across several steps.
type raExec struct {
	spec *arch.RASpec
	// pendStart holds a SCAN range's start token until its end arrives.
	pendStart sim.Value
	hasStart  bool
	// arr[next:end] is the unemitted rest of the current SCAN range, and
	// emitNext its pending group marker.
	arr       *mem.Array
	next, end int64
	emitNext  bool
}

// busy reports whether a SCAN range is partly emitted.
func (r *raExec) busy() bool { return r.next < r.end || r.emitNext }

func (r *raExec) trap(msg string) error {
	return &sim.TrapError{Stage: "ra:" + r.spec.Name, PC: -1, Msg: msg}
}

// step advances r until its input is empty or its output is full and
// reports whether it moved a token.
func (r *raExec) step(e *engine) (bool, error) {
	spec := r.spec
	in, out := &e.queues[spec.InQ], &e.queues[spec.OutQ]
	moved := false
	for {
		for r.next < r.end {
			if out.full() {
				return moved, nil
			}
			out.push(loadValue(r.arr, r.next))
			r.next++
			moved = true
		}
		if r.emitNext {
			if out.full() {
				return moved, nil
			}
			out.push(sim.CtrlVal(spec.NextCode))
			r.emitNext = false
			moved = true
		}
		if in.n == 0 {
			return moved, nil
		}
		v := in.buf[in.head]
		arr := e.m.Slots[spec.Slot]
		switch {
		case v.Ctrl:
			if r.hasStart {
				return moved, r.trap("control value between SCAN start/end pair")
			}
			if out.full() {
				return moved, nil
			}
			out.push(in.pop())
		case spec.Mode == arch.RAIndirect:
			if out.full() {
				return moved, nil
			}
			in.pop()
			if !arr.InBounds(v.Bits) {
				return moved, r.trap(fmt.Sprintf("index %d out of bounds for %s (len %d)", v.Bits, arr.Name, arr.Len()))
			}
			out.push(loadValue(arr, v.Bits))
		default: // arch.RAScan
			in.pop()
			if !r.hasStart {
				r.pendStart, r.hasStart = v, true
				break
			}
			start, end := r.pendStart.Bits, v.Bits
			r.hasStart = false
			if start < 0 || end < start || (end > start && !arr.InBounds(end-1)) {
				return moved, r.trap(fmt.Sprintf("scan range [%d,%d) out of bounds for %s (len %d)", start, end, arr.Name, arr.Len()))
			}
			r.arr, r.next, r.end, r.emitNext = arr, start, end, spec.EmitNext
		}
		moved = true
	}
}
