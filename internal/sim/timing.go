package sim

import (
	"math"
	"math/bits"

	"phloem/internal/arch"
	"phloem/internal/cache"
	"phloem/internal/isa"
)

// Timing engine: replays the functional traces on the Pipette machine model.
// Each SMT thread fetches its trace in order into a reorder window; the core
// issues up to IssueWidth ready micro-ops per cycle across its threads
// (oldest-first within each thread, register renaming via producer tracking).
// Queue operations issue in program order per thread and block on full/empty
// architectural queues; reference accelerators replay their micro-event
// traces with a bounded outstanding-miss window and in-order delivery.

const (
	issueScanCap     = 48 // unissued entries examined per thread per cycle
	predBits         = 12
	defaultIdleLimit = 1 << 20 // cycles without progress before declaring deadlock
	farFuture        = math.MaxUint64 / 4
)

// uopKind is the timing behaviour of a static instruction.
type uopKind uint8

const (
	kALU uopKind = iota // fixed latency, no side effects
	kLoad
	kStore
	kPrefetch
	kBranch
	kBarrier
	kHalt
	// Queue ops, contiguous so isQueue is a range test.
	kEnq     // data enqueue (duplicated to fan-out destinations)
	kEnqCtrl // control enqueue, with or without a register payload
	kDeq
	kPeek
)

func (k uopKind) isQueue() bool { return k >= kEnq }
func (k uopKind) isEnq() bool   { return k == kEnq || k == kEnqCtrl }

// uop is a static instruction decoded once per RunTiming, so fetch and
// issue never re-derive opcode classes, latencies or register operands.
type uop struct {
	kind uopKind
	lat  uint8   // execution latency of kALU and kBranch ops
	q    int32   // queue of queue ops
	a, b isa.Reg // source registers (NoReg: none)
	dst  isa.Reg // destination register (NoReg: none)
}

func decodeProgram(p *isa.Program) []uop {
	out := make([]uop, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		u := uop{lat: uint8(in.Class().Latency()), q: int32(in.Q), dst: in.Writes()}
		u.a, u.b = in.Reads()
		switch in.Op {
		case isa.OpLoad:
			u.kind = kLoad
		case isa.OpStore:
			u.kind = kStore
		case isa.OpPrefetch:
			u.kind = kPrefetch
		case isa.OpBr, isa.OpBrZ:
			u.kind = kBranch
		case isa.OpBarrier:
			u.kind = kBarrier
		case isa.OpHalt:
			u.kind = kHalt
		case isa.OpEnq:
			u.kind = kEnq
		case isa.OpEnqCtrl, isa.OpEnqCtrlV:
			u.kind = kEnqCtrl
		case isa.OpDeq:
			u.kind = kDeq
		case isa.OpPeek:
			u.kind = kPeek
		}
		out[i] = u
	}
	return out
}

type winEntry struct {
	seq    int // trace index
	doneAt uint64
	// srcDone holds the completion time of each source operand's
	// producer: 0 when the value was available at fetch, farFuture while
	// the producer has not issued.
	srcDone [2]uint64
	// consumers heads the list of entries parked on this one (a node of
	// tThread.links, -1: none).
	consumers int32
	q         int32 // queue of queue ops
	kind      uopKind
	lat       uint8
	// parkDep: an older entry this one is ordered behind has not issued
	// (loads: the newest older store to the same address; queue ops: the
	// previous queue op).
	parkDep  bool
	issued   bool
	redirect bool // fetch stopped behind this entry (mispredict/handler)
	released bool // for barriers: all threads arrived, entry may issue
}

// parked reports whether the entry waits on an unissued predecessor.
func (en *winEntry) parked() bool {
	return en.parkDep || max(en.srcDone[0], en.srcDone[1]) >= farFuture
}

type tThread struct {
	idx   int // index into Machine.Stages (probe identity)
	core  int
	slot  int // SMT thread index on the core
	dec   []uop
	trace []TEntry
	name  string

	fetchIdx int
	// win is a ring indexed by seq&winMask: head is always baseSeq&winMask.
	win      []winEntry
	winMask  int
	head     int // ring index of oldest entry
	count    int
	baseSeq  int // seq of oldest entry in window
	scanFrom int // offset of the oldest unissued entry (lazy)

	// Event-driven issue state, over ring positions: unissued marks window
	// entries not yet issued, parked the subset waiting on an unissued
	// predecessor. links holds the consumer lists: node 3*pos+k chains
	// entry pos into the list of its k-th predecessor (source A, source
	// B, ordering predecessor).
	unissued  []uint64
	parked    []uint64
	links     []int32
	nUnissued int
	wordSpan  int // ring positions per bitmap word: min(64, len(win))

	regWriter []int // last fetched writer seq per register (-1: none live)
	// lastStoreAt maps byte addresses to the newest fetched store (exact
	// memory disambiguation, as an OOO core's store queue provides).
	lastStoreAt map[uint64]int
	lastQOp     int    // last fetched queue-op seq (-1: none)
	redirectAt  uint64 // fetch blocked until this cycle (redirect penalty)
	redirectSeq int    // entry that must issue before fetch resumes (-1: none)

	// gshare predictor
	predTable []uint8
	history   uint32

	finished bool
	issuedN  uint64

	// Scan-skip state: the thread is rescanned when dirty or once wakeAt is
	// reached; lastQE/lastQF/lastMB cache the stall classification (blocked
	// on empty queue, full queue, memory) meanwhile. A thread sleeping with
	// wakeAt == farFuture is also woken by retirement.
	dirty  bool
	wakeAt uint64
	lastQE bool
	lastQF bool
	lastMB bool
}

type tQueue struct {
	ready []uint64 // readyAt per token, FIFO
	head  int
	cap   int
}

func (q *tQueue) len() int { return len(q.ready) - q.head }
func (q *tQueue) push(at uint64) {
	q.ready = append(q.ready, at)
}
func (q *tQueue) pop() {
	q.head++
	// Occupancy is bounded by cap, so compacting once the dead prefix
	// exceeds it keeps the buffer at a few times the queue capacity
	// (amortized O(1) per token) instead of growing toward 8K entries.
	if q.head > q.cap && q.head*2 > len(q.ready) {
		q.ready = append(q.ready[:0], q.ready[q.head:]...)
		q.head = 0
	}
}
func (q *tQueue) headReady() uint64 { return q.ready[q.head] }

type tRA struct {
	id          int // index into Machine.RAs (probe identity)
	core        int
	events      []RAEvent
	idx         int
	inQ, outQ   int
	outstanding int
	// inflight delivery FIFO: completion times, delivered in order.
	inflight []uint64
	ifHead   int
	loads    int // loads among inflight
}

type timingEngine struct {
	m         *Machine
	hier      *cache.Hierarchy
	threads   []*tThread
	byCore    [][]*tThread
	queues    []*tQueue
	ras       []*tRA
	rasByCore [][]*tRA
	now       uint64

	// qConsumer[q] is the thread consuming queue q (nil if an RA consumes
	// it); qProducers[q] lists producing threads (for full-queue wakeups).
	qConsumer  []*tThread
	qProducers [][]*tThread

	// fan[q] lists the fan-out destinations a data enqueue into q is
	// duplicated to (nil for ordinary queues, nil slice when no fanouts).
	fan [][]int

	// mshrs[core] holds the completion times of outstanding L1 misses.
	mshrs [][]uint64

	stats    Stats
	queueOps uint64
	raEvents uint64
	// memN numbers memory accesses for the MemLatency fault hook; ctrlN
	// numbers control-value enqueues per queue for CtrlDelay.
	memN  uint64
	ctrlN []uint64

	// probe observation state. probe is nil when no telemetry is installed;
	// every hook site tests it once. sampleEvery/sampleAt drive interval
	// samples; curThread/curPC remember the first micro-op issued in the
	// current issueCore call for issue-cycle attribution.
	probe       Probe
	sampleEvery uint64
	sampleAt    uint64
	curThread   int
	curPC       int
}

// extraMemLatency consults the MemLatency fault hook for the next access.
func (e *timingEngine) extraMemLatency() uint64 {
	f := e.m.Faults
	if f == nil || f.MemLatency == nil {
		return 0
	}
	d := f.MemLatency(e.memN)
	e.memN++
	return d
}

// ctrlDelay consults the CtrlDelay fault hook for a control enqueue on q.
func (e *timingEngine) ctrlDelay(q int) uint64 {
	f := e.m.Faults
	if f == nil || f.CtrlDelay == nil {
		return 0
	}
	d := f.CtrlDelay(q, e.ctrlN[q])
	e.ctrlN[q]++
	return d
}

// stalled consults the ThreadStall fault hook for thread t at e.now.
func (e *timingEngine) stalled(t *tThread) bool {
	f := e.m.Faults
	return f != nil && f.ThreadStall != nil && f.ThreadStall(t.core, t.slot, e.now)
}

// RunTiming replays traces and returns timing statistics. The Machine must be
// the same instance (programs, queues, RAs) that produced the traces.
func (m *Machine) RunTiming(ts *TraceSet) (*Stats, error) {
	e := &timingEngine{m: m, hier: cache.NewHierarchy(m.Cfg.Mem)}
	e.byCore = make([][]*tThread, m.Cfg.Cores)
	e.rasByCore = make([][]*tRA, m.Cfg.Cores)
	winSize := 1
	for winSize < m.Cfg.WindowSize {
		winSize <<= 1
	}
	for i, st := range m.Stages {
		t := &tThread{
			idx:         i,
			core:        st.Thread.Core,
			slot:        st.Thread.Thread,
			dec:         decodeProgram(st.Prog),
			trace:       ts.Threads[i],
			name:        st.Prog.Name,
			win:         make([]winEntry, winSize),
			unissued:    make([]uint64, (winSize+63)/64),
			parked:      make([]uint64, (winSize+63)/64),
			links:       make([]int32, 3*winSize),
			wordSpan:    min(64, winSize),
			regWriter:   make([]int, st.Prog.NumRegs),
			lastStoreAt: map[uint64]int{},
			lastQOp:     -1,
			redirectSeq: -1,
			predTable:   make([]uint8, 1<<predBits),
		}
		t.winMask = len(t.win) - 1
		for j := range t.regWriter {
			t.regWriter[j] = -1
		}
		if len(t.trace) == 0 {
			t.finished = true
		}
		e.threads = append(e.threads, t)
		e.byCore[t.core] = append(e.byCore[t.core], t)
	}
	for q := range m.Queues {
		e.queues = append(e.queues, &tQueue{cap: m.queueCap(q)})
	}
	if len(m.FanOuts) > 0 {
		e.fan = make([][]int, len(m.Queues))
		for _, f := range m.FanOuts {
			e.fan[f.Src] = f.Dst
		}
	}
	e.ctrlN = make([]uint64, len(m.Queues))
	for i, spec := range m.RAs {
		ra := &tRA{
			id:   i,
			core: spec.Core, events: ts.RA[i], inQ: spec.InQ, outQ: spec.OutQ,
			outstanding: m.raWindow(i),
		}
		e.ras = append(e.ras, ra)
		e.rasByCore[spec.Core] = append(e.rasByCore[spec.Core], ra)
	}
	e.qConsumer = make([]*tThread, len(m.Queues))
	e.qProducers = make([][]*tThread, len(m.Queues))
	for i, st := range m.Stages {
		t := e.threads[i]
		t.dirty = true
		for _, in := range st.Prog.Instrs {
			switch in.Op {
			case isa.OpDeq, isa.OpPeek:
				e.qConsumer[in.Q] = t
			case isa.OpEnq, isa.OpEnqCtrl, isa.OpEnqCtrlV:
				dup := false
				for _, p := range e.qProducers[in.Q] {
					if p == t {
						dup = true
					}
				}
				if !dup {
					e.qProducers[in.Q] = append(e.qProducers[in.Q], t)
				}
			}
		}
	}
	// A fanned enqueue blocks on its destinations too, so draining a dst
	// must wake the src's producers.
	for _, f := range m.FanOuts {
		for _, d := range f.Dst {
			for _, p := range e.qProducers[f.Src] {
				dup := false
				for _, q := range e.qProducers[d] {
					if q == p {
						dup = true
					}
				}
				if !dup {
					e.qProducers[d] = append(e.qProducers[d], p)
				}
			}
		}
	}
	e.mshrs = make([][]uint64, m.Cfg.Cores)
	e.stats.PerCore = make([]Breakdown, m.Cfg.Cores)
	e.stats.Instructions = ts.Instructions

	e.probe = m.Probe
	if e.probe != nil {
		e.sampleEvery = m.Cfg.TelemetryInterval
		e.sampleAt = e.sampleEvery
		e.probe.BeginTiming(m)
	}

	if err := e.run(); err != nil {
		// On a budget, cancellation, or wall-deadline abort, attach the
		// partial stats accumulated so far so the caller can still see how
		// the aborted run spent its cycles.
		var partial **Stats
		switch te := err.(type) {
		case *CycleBudgetError:
			partial = &te.Stats
		case *CancelledError:
			partial = &te.Stats
		case *WallBudgetError:
			partial = &te.Stats
		}
		if partial != nil {
			e.finishStats()
			*partial = &e.stats
			if e.probe != nil {
				e.probe.EndTiming(&e.stats)
			}
		}
		return nil, err
	}
	e.finishStats()
	if e.probe != nil {
		e.probe.EndTiming(&e.stats)
	}
	return &e.stats, nil
}

// finishStats fills in the derived statistics (cycles, cache, energy,
// per-thread counts) from the engine's current state.
func (e *timingEngine) finishStats() {
	e.stats.Cycles = e.now
	e.stats.Cache = e.hier.Stats()
	active := 0
	for c := range e.byCore {
		if len(e.byCore[c]) > 0 || len(e.rasByCore[c]) > 0 {
			active++
		}
	}
	computeEnergy(&e.stats, e.queueOps, e.raEvents, active)
	for _, t := range e.threads {
		e.stats.Threads = append(e.stats.Threads, ThreadStats{Name: t.name, Instructions: uint64(len(t.trace))})
	}
}

func (e *timingEngine) run() error {
	idle := uint64(0)
	idleLimit := e.m.Cfg.IdleLimit
	if idleLimit == 0 {
		idleLimit = defaultIdleLimit
	}
	budget := e.m.Cfg.CycleBudget
	interruptible := e.m.interruptible()
	nextInterruptCheck := uint64(0)
	for {
		if budget != 0 && e.now >= budget {
			return &CycleBudgetError{Budget: budget, Cycles: e.now}
		}
		if interruptible && e.now >= nextInterruptCheck {
			if err := e.m.checkInterrupt("timing", e.now); err != nil {
				return err
			}
			nextInterruptCheck = e.now + interruptCheckPeriod
		}
		if e.probe != nil && e.sampleEvery != 0 && e.now >= e.sampleAt {
			e.emitSample()
			e.sampleAt = (e.now/e.sampleEvery + 1) * e.sampleEvery
		}
		done := true
		for _, t := range e.threads {
			if !t.finished {
				done = false
				break
			}
		}
		if done {
			for _, ra := range e.ras {
				if ra.idx < len(ra.events) || ra.ifHead < len(ra.inflight) {
					done = false
					break
				}
			}
		}
		if done {
			return nil
		}

		progress := false

		// 1. Retire completed entries in order.
		for _, t := range e.threads {
			for t.count > 0 {
				h := &t.win[t.head]
				if !h.issued || h.doneAt > e.now {
					break
				}
				e.retireHead(t)
				progress = true
			}
		}

		// 2. Barrier resolution: a thread "arrives" when its window head is
		// an unissued Barrier entry. When all live threads have arrived (or
		// finished), the pending barriers are released; the release latches
		// per entry so cross-core barriers may issue on different cycles.
		if e.barriersReady() {
			for _, t := range e.threads {
				if !t.finished && t.count > 0 {
					t.win[t.head].released = true
					t.dirty = true
				}
			}
			progress = true
		}

		// 3. Fetch.
		for _, t := range e.threads {
			if e.fetch(t) {
				progress = true
			}
		}

		// 4. RA tick.
		for _, ra := range e.ras {
			if e.tickRA(ra) {
				progress = true
			}
		}

		// 5. Issue per core.
		for c := range e.byCore {
			issued, blockEmpty, blockFull, blockMem := e.issueCore(c)
			if issued > 0 {
				progress = true
				e.stats.PerCore[c].Issue++
				if e.probe != nil {
					e.probe.CoreCycles(c, ClassIssue, e.curThread, e.curPC, 1)
				}
			} else if e.coreLive(c) {
				switch {
				case blockEmpty || blockFull:
					e.stats.PerCore[c].Queue++
					// Empty wins when both block (the consumer side is what
					// keeps the pipeline from draining).
					if blockEmpty {
						e.stats.QueueEmptyStalls++
					} else {
						e.stats.QueueFullStalls++
					}
					e.attributeStall(c, ClassQueue, 1)
				case blockMem:
					e.stats.PerCore[c].Backend++
					e.attributeStall(c, ClassBackend, 1)
				default:
					e.stats.PerCore[c].Other++
					e.attributeStall(c, ClassOther, 1)
				}
			}
		}

		if progress {
			idle = 0
			e.now++
			continue
		}

		// 6. Idle: fast-forward to the next known event.
		next := e.nextEvent()
		if next > e.now && next < farFuture {
			delta := next - e.now
			// Attribute skipped cycles per core using the same stall class.
			for c := range e.byCore {
				if !e.coreLive(c) {
					continue
				}
				blockQ, blockMem := e.classifyCore(c)
				switch {
				case blockQ:
					e.stats.PerCore[c].Queue += delta - 1
					e.attributeStall(c, ClassQueue, delta-1)
				case blockMem:
					e.stats.PerCore[c].Backend += delta - 1
					e.attributeStall(c, ClassBackend, delta-1)
				default:
					e.stats.PerCore[c].Other += delta - 1
					e.attributeStall(c, ClassOther, delta-1)
				}
			}
			e.now = next
			idle = 0
			continue
		}
		idle++
		e.now++
		if idle > idleLimit {
			return &DeadlockError{Snapshot: e.snapshot(), IdleCycles: idle}
		}
	}
}

// emitSample delivers a cumulative Stats snapshot to the probe. Only the
// counters that accumulate during the run are meaningful mid-flight; Energy
// and Threads are derived at the end and stay zero in samples.
func (e *timingEngine) emitSample() {
	snap := e.stats
	snap.Cycles = e.now
	snap.Cache = e.hier.Stats()
	snap.PerCore = append([]Breakdown(nil), e.stats.PerCore...)
	e.probe.Sample(e.now, &snap)
}

// attributeStall reports weight stall cycles of the given class on core c to
// the probe, attributed to the oldest blocked entry of that class (or -1/-1
// when no site is identifiable). It matches exactly the cycles the engine
// adds to the core's Breakdown, so probe-side totals reconcile with Stats.
func (e *timingEngine) attributeStall(c int, class StallClass, weight uint64) {
	if e.probe == nil || weight == 0 {
		return
	}
	th, pc := e.stallSite(c, class)
	e.probe.CoreCycles(c, class, th, pc, weight)
}

// stallSite finds a representative (thread, PC) for a stall of the given
// class on core c: the oldest unissued window entry whose blocking reason
// matches. Like classifyCore it examines offsets [scanFrom, scanFrom+48),
// not issueCore's candidate range; the attribution in Stats depends on this.
// checkIssue is side-effect-free apart from MSHR-list compaction, so
// probing here cannot change issue decisions.
func (e *timingEngine) stallSite(c int, class StallClass) (thread, pc int) {
	for _, t := range e.byCore[c] {
		if t.finished {
			continue
		}
		end := min(t.count, t.scanFrom+issueScanCap)
		for off := t.next(selUnissued, t.scanFrom, end); off < end; off = t.next(selUnissued, off+1, end) {
			en := t.entry(off)
			ready, qb, mb := e.checkIssue(t, en)
			match := false
			switch class {
			case ClassQueue:
				match = qb
			case ClassBackend:
				match = mb
			default:
				match = !ready && !qb && !mb
			}
			if match {
				return t.idx, int(t.trace[en.seq].PC)
			}
		}
	}
	return -1, -1
}

// snapshot captures the timing engine's wait-for state: which stage blocks
// on which queue (full/empty), RA window occupancy, and per-thread retire
// watermarks.
func (e *timingEngine) snapshot() *WaitForSnapshot {
	s := &WaitForSnapshot{Phase: "timing", Cycle: e.now}
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		w := StageWait{
			Stage:   t.name,
			Thread:  arch.ThreadID{Core: t.core, Thread: t.slot},
			PC:      -1,
			Fetched: t.fetchIdx,
			Total:   len(t.trace),
			Retired: uint64(t.baseSeq),
		}
		if t.count == 0 {
			w.State = "window-empty"
		} else {
			h := &t.win[t.head]
			w.PC = t.trace[h.seq].PC
			switch {
			case h.issued:
				w.State = "in-flight"
			case h.kind == kDeq || h.kind == kPeek:
				w.State = "deq-empty"
				w.Queue = e.queueWait(int(h.q))
			case h.kind.isEnq():
				w.State = "enq-full"
				w.Queue = e.queueWait(int(h.q))
			case h.kind == kBarrier && !h.released:
				w.State = "barrier"
			case h.kind == kLoad:
				w.State = "mem"
			default:
				w.State = "other"
			}
		}
		s.Stages = append(s.Stages, w)
	}
	for i, ra := range e.ras {
		if ra.idx >= len(ra.events) && ra.ifHead >= len(ra.inflight) {
			continue
		}
		next := "done"
		if ra.idx < len(ra.events) {
			switch ra.events[ra.idx].Kind {
			case RAConsume:
				next = "consume"
			case RALoad:
				next = "load"
			default:
				next = "pass"
			}
		}
		s.RAs = append(s.RAs, RAWait{
			Name:     e.m.RAs[i].Name,
			Inflight: len(ra.inflight) - ra.ifHead,
			Window:   ra.outstanding,
			Next:     next,
			In:       *e.queueWait(ra.inQ),
			Out:      *e.queueWait(ra.outQ),
		})
	}
	for q := range e.queues {
		s.Queues = append(s.Queues, *e.queueWait(q))
	}
	return s
}

func (e *timingEngine) queueWait(q int) *QueueWait {
	return &QueueWait{Q: q, Name: e.m.Queues[q].Name, Len: e.queues[q].len(), Cap: e.queues[q].cap}
}

// mshrAvailable reports whether the core can start another L1 miss at e.now,
// compacting completed entries.
func (e *timingEngine) mshrAvailable(core int) bool {
	lim := e.m.Cfg.MSHRs
	if lim <= 0 {
		return true
	}
	live := e.mshrs[core][:0]
	for _, t := range e.mshrs[core] {
		if t > e.now {
			live = append(live, t)
		}
	}
	e.mshrs[core] = live
	return len(live) < lim
}

func (e *timingEngine) wakeConsumer(q int) {
	if t := e.qConsumer[q]; t != nil {
		t.dirty = true
	}
}

func (e *timingEngine) wakeProducers(q int) {
	for _, t := range e.qProducers[q] {
		t.dirty = true
	}
}

func (e *timingEngine) coreLive(c int) bool {
	for _, t := range e.byCore[c] {
		if !t.finished {
			return true
		}
	}
	return false
}

// retireHead removes the completed head entry, releasing rename state.
// Retirement can let a Halt issue or shift the scan range, so it wakes a
// thread that sleeps without a known wake time.
func (e *timingEngine) retireHead(t *tThread) {
	t.head = (t.head + 1) & t.winMask
	t.count--
	t.baseSeq++
	if t.scanFrom > 0 {
		t.scanFrom--
	}
	if t.wakeAt >= farFuture {
		t.dirty = true
	}
}

func (t *tThread) at(seq int) *winEntry { return &t.win[seq&t.winMask] }

// entry returns the window entry at offset off from the head.
func (t *tThread) entry(off int) *winEntry { return &t.win[(t.head+off)&t.winMask] }

// Bitmap selectors for tThread.next.
const (
	selUnissued = iota // not yet issued
	selParked          // waiting on an unissued predecessor
	selReady           // unissued and not parked: an issue candidate
)

// next returns the first offset in [off, end) whose entry is in the
// selected set, or end if there is none.
func (t *tThread) next(sel, off, end int) int {
	for off < end {
		p := (t.head + off) & t.winMask
		// A word's bits past p cover consecutive offsets: the ring wraps
		// only at word boundaries (or at len(win) within a single word).
		if w := t.word(sel, p>>6) >> (p & 63); w != 0 {
			return min(off+bits.TrailingZeros64(w), end)
		}
		off += t.wordSpan - p&(t.wordSpan-1)
	}
	return end
}

func (t *tThread) word(sel, i int) uint64 {
	switch sel {
	case selUnissued:
		return t.unissued[i]
	case selParked:
		return t.parked[i]
	}
	return t.unissued[i] &^ t.parked[i]
}

// scanLimit bounds issueCore's candidate range: it returns the offset just
// past the k-th unissued entry in [off, end), or end if there are fewer,
// and whether the k-th was found (the scan is truncated).
func (t *tThread) scanLimit(off, end, k int) (lim int, truncated bool) {
	if t.nUnissued < k {
		return end, false
	}
	n := 0
	for off < end {
		p := (t.head + off) & t.winMask
		span := min(t.wordSpan-p&(t.wordSpan-1), end-off)
		w := t.unissued[p>>6] >> (p & 63)
		if span < 64 {
			w &= 1<<span - 1
		}
		if c := bits.OnesCount64(w); n+c < k {
			n += c
			off += span
			continue
		}
		for i := k - n; i > 1; i-- {
			w &= w - 1
		}
		return off + bits.TrailingZeros64(w) + 1, true
	}
	return end, false
}

// markIssued clears the entry's unissued bit and releases the entries
// parked on it; each becomes a candidate once its last predecessor issues.
func (t *tThread) markIssued(en *winEntry) {
	p := en.seq & t.winMask
	t.unissued[p>>6] &^= 1 << (p & 63)
	t.nUnissued--
	for n := en.consumers; n >= 0; n = t.links[n] {
		c := int(n) / 3
		ce := &t.win[c]
		if k := n % 3; k == 2 {
			ce.parkDep = false
		} else {
			ce.srcDone[k] = en.doneAt
		}
		if !ce.parked() {
			t.parked[c>>6] &^= 1 << (c & 63)
		}
	}
	en.consumers = -1
}

// fetch brings up to FetchWidth trace entries into the window.
func (e *timingEngine) fetch(t *tThread) bool {
	if t.finished {
		return false
	}
	fetched := 0
	for fetched < e.m.Cfg.FetchWidth {
		if t.count >= len(t.win) || t.fetchIdx >= len(t.trace) {
			break
		}
		if t.redirectSeq >= 0 {
			// Fetch is blocked behind an unresolved redirect.
			if t.redirectSeq >= t.baseSeq {
				en := t.at(t.redirectSeq)
				if !en.issued {
					break
				}
			}
			if e.now < t.redirectAt {
				break
			}
			t.redirectSeq = -1
		}
		seq := t.fetchIdx
		te := &t.trace[seq]
		u := &t.dec[te.PC]
		pos := seq & t.winMask
		en := &t.win[pos]
		// Clear, then fill: a composite literal would be built on the
		// stack and copied.
		*en = winEntry{}
		en.seq, en.consumers, en.q, en.kind, en.lat = seq, -1, u.q, u.kind, u.lat

		// Predecessors: the producers of both sources and the entry this
		// one is ordered behind (-1: none).
		preds := [3]int{-1, -1, -1}
		if u.a != isa.NoReg {
			preds[0] = t.regWriter[u.a]
		}
		if u.b != isa.NoReg {
			preds[1] = t.regWriter[u.b]
		}
		switch u.kind {
		case kLoad:
			if dep, ok := t.lastStoreAt[te.Addr]; ok {
				preds[2] = dep
			}
		case kStore:
			t.lastStoreAt[te.Addr] = seq
		case kBranch:
			taken := te.Flags&FlagTaken != 0
			idx := (uint32(te.PC) ^ t.history) & (1<<predBits - 1)
			ctr := t.predTable[idx]
			pred := ctr >= 2
			if pred != taken {
				en.redirect = true
				e.stats.Mispredicts++
			}
			if taken && ctr < 3 {
				t.predTable[idx] = ctr + 1
			} else if !taken && ctr > 0 {
				t.predTable[idx] = ctr - 1
			}
			t.history = t.history<<1 | b2u(taken)
		case kDeq:
			if te.Flags&FlagHandlerFire != 0 {
				// A firing handler redirects the front end, like the
				// hardware jump Pipette performs when a control value is
				// about to be dequeued.
				en.redirect = true
				e.stats.HandlerFires++
				if e.probe != nil {
					e.probe.HandlerFire(t.idx, int(te.PC), e.now)
				}
			}
		}
		if u.kind.isQueue() {
			// Queue ops issue in program order (loads are never queue ops).
			preds[2] = t.lastQOp
			t.lastQOp = seq
		}
		if u.dst != isa.NoReg {
			t.regWriter[u.dst] = seq
		}

		// Park the entry on each predecessor still unissued (retired ones
		// are below baseSeq); it cannot issue before they do.
		for k, d := range &preds {
			if d < t.baseSeq {
				continue
			}
			pe := t.at(d)
			if pe.issued {
				if k < 2 {
					en.srcDone[k] = pe.doneAt
				}
				continue
			}
			node := int32(3*pos + k)
			t.links[node] = pe.consumers
			pe.consumers = node
			if k < 2 {
				en.srcDone[k] = farFuture
			} else {
				en.parkDep = true
			}
		}
		// Positions outside the window are clear in both bitmaps: every
		// retired entry issued, and no parked entry issues.
		bit := uint64(1) << (pos & 63)
		t.unissued[pos>>6] |= bit
		t.nUnissued++
		if en.parked() {
			t.parked[pos>>6] |= bit
		}
		t.count++
		t.dirty = true
		t.fetchIdx++
		fetched++
		if en.redirect {
			t.redirectSeq = seq
			t.redirectAt = farFuture
			break
		}
	}
	return fetched > 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// barriersReady reports whether all live threads are parked at a barrier.
func (e *timingEngine) barriersReady() bool {
	any := false
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		if t.count == 0 {
			return false
		}
		h := &t.win[t.head]
		// A barrier that was already released but has not issued yet has
		// not been crossed: counting it as a fresh arrival would pair it
		// with other threads' *next* barriers and skew the rendezvous.
		if h.issued || h.released {
			return false
		}
		if h.kind != kBarrier {
			return false
		}
		any = true
	}
	return any
}

// issueCore issues up to IssueWidth ready micro-ops on core c. It returns the
// number issued and whether any thread was blocked on an empty queue, a full
// queue, or memory. Threads are visited in rotating order for SMT fairness.
func (e *timingEngine) issueCore(c int) (issued int, blockEmpty, blockFull, blockMem bool) {
	budget := e.m.Cfg.IssueWidth
	ths := e.byCore[c]
	n := len(ths)
	if n == 0 {
		return 0, false, false, false
	}
	e.curThread, e.curPC = -1, -1
	i := int(e.now % uint64(n))
	for k := 0; k < n; k, i = k+1, i+1 {
		if i == n {
			i = 0
		}
		t := ths[i]
		if t.finished || budget == 0 {
			continue
		}
		if e.stalled(t) {
			// Barred from issuing this cycle; stay dirty so the thread
			// rescans as soon as the stall window ends.
			t.dirty = true
			if e.probe != nil {
				e.probe.ThreadState(t.idx, ClassOther, e.now)
			}
			continue
		}
		if !t.dirty && e.now < t.wakeAt {
			blockEmpty = blockEmpty || t.lastQE
			blockFull = blockFull || t.lastQF
			blockMem = blockMem || t.lastMB
			if e.probe != nil {
				e.probe.ThreadState(t.idx, stallClassOf(t.lastQE || t.lastQF, t.lastMB), e.now)
			}
			continue
		}
		t.dirty = false
		got, tQE, tQF, tMB := e.scanThread(t, budget)
		issued += got
		budget -= got
		blockEmpty = blockEmpty || tQE
		blockFull = blockFull || tQF
		blockMem = blockMem || tMB
		if e.probe != nil {
			if got > 0 {
				e.probe.ThreadState(t.idx, ClassIssue, e.now)
			} else {
				e.probe.ThreadState(t.idx, stallClassOf(tQE || tQF, tMB), e.now)
			}
		}
	}
	return issued, blockEmpty, blockFull, blockMem
}

// scanThread issues up to budget of t's entries, oldest first. Its
// candidate range is the first issueScanCap unissued entries within
// 2*issueScanCap offsets of scanFrom. Only unparked entries are tried:
// a parked entry waits on an unissued predecessor, so it cannot issue,
// and it is released (markIssued) before the scan reaches it if that
// predecessor issues earlier in the same scan.
//
// When the thread issues nothing, it reports the stall flags of every
// entry in the range and sleeps until the earliest wake time they give,
// or, if none is known, until an event: fetch, retirement, a barrier
// release, or a push or pop on a queue it uses. When it issues, the
// flags are never consulted (the core issued), and it rescans next cycle.
func (e *timingEngine) scanThread(t *tThread, budget int) (issued int, tQE, tQF, tMB bool) {
	from := t.scanFrom
	lim, truncated := t.scanLimit(from, min(t.count, from+2*issueScanCap), issueScanCap)
	stop := lim
	wake := uint64(farFuture)
	// A failed load check compacts the core's MSHR list, which entryWake
	// reads; mshrAt records the offset where that happened.
	mshrs := &e.mshrs[t.core]
	mshrLen, mshrAt := len(*mshrs), lim
	for off := t.next(selReady, from, lim); off < lim; off = t.next(selReady, off+1, lim) {
		en := t.entry(off)
		ok, qb, mb := e.tryIssue(t, en)
		if ok {
			issued++
			t.issuedN++
			e.stats.Issued++
			if issued == budget {
				stop = off + 1
				break
			}
			continue
		}
		if issued > 0 {
			continue
		}
		if mshrAt == lim && len(*mshrs) != mshrLen {
			mshrAt = off
		}
		wake = min(wake, e.entryWake(t, en, len(*mshrs)))
		if qb {
			// A blocking queue op is an enqueue (full queue) or a
			// dequeue/peek (empty queue); the op kind tells which.
			if en.kind.isEnq() {
				tQF = true
			} else {
				tQE = true
			}
		}
		tMB = tMB || mb
	}
	if issued == 0 {
		// Parked entries block on an operand or an older store (memory)
		// or on an older queue op; checkIssue stops before any state it
		// would change. A truncated scan rescans next cycle, so it needs
		// no wake time; and no wake time is earlier than now+1.
		needWake := !truncated
		for off := t.next(selParked, from, lim); off < lim; off = t.next(selParked, off+1, lim) {
			if tMB && (!needWake || wake == e.now+1) {
				break
			}
			en := t.entry(off)
			if !tMB {
				_, _, tMB = e.checkIssue(t, en)
			}
			if needWake {
				n := len(*mshrs)
				if off < mshrAt {
					n = mshrLen
				}
				wake = min(wake, e.entryWake(t, en, n))
			}
		}
	}
	if first := t.next(selUnissued, from, stop); first < stop {
		t.scanFrom = first
	} else if issued > 0 || from >= t.count {
		t.scanFrom = 0
	}
	if issued > 0 || truncated {
		// New issues unlock dependents, or the scan was truncated.
		t.dirty = true
	} else {
		t.wakeAt = wake
		t.lastQE, t.lastQF, t.lastMB = tQE, tQF, tMB
	}
	return issued, tQE, tQF, tMB
}

// stallClassOf maps per-thread block bits to the stall class with the same
// priority order the per-core classification uses.
func stallClassOf(qb, mb bool) StallClass {
	switch {
	case qb:
		return ClassQueue
	case mb:
		return ClassBackend
	}
	return ClassOther
}

// entryWake estimates when a not-ready entry could become issuable from
// information known now: producer completion times and available queue
// tokens. Unissued producers and queue-state changes wake the thread via
// dirty marking instead. A load also waits for the core's MSHRs when the
// list holds at least MSHRs entries; mshrLen is that length as of the
// entry's own check.
func (e *timingEngine) entryWake(t *tThread, en *winEntry, mshrLen int) uint64 {
	w := uint64(farFuture)
	for _, d := range en.srcDone {
		if d > e.now && d < w {
			w = d
		}
	}
	switch en.kind {
	case kDeq, kPeek:
		if q := e.queues[en.q]; q.len() > 0 {
			if r := q.headReady(); r > e.now && r < w {
				w = r
			}
		}
	case kLoad:
		if lim := e.m.Cfg.MSHRs; lim > 0 && mshrLen >= lim {
			for _, c := range e.mshrs[t.core] {
				if c > e.now && c < w {
					w = c
				}
			}
		}
	}
	return w
}

// classifyCore recomputes the stall classification without issuing (used when
// fast-forwarding idle periods). It examines offsets [scanFrom, scanFrom+48),
// not issueCore's candidate range (the first 48 unissued entries within 96
// offsets); the skipped-cycle attribution in Stats depends on this.
func (e *timingEngine) classifyCore(c int) (blockQ, blockMem bool) {
	for _, t := range e.byCore[c] {
		if t.finished {
			continue
		}
		end := min(t.count, t.scanFrom+issueScanCap)
		for off := t.next(selUnissued, t.scanFrom, end); off < end; off = t.next(selUnissued, off+1, end) {
			_, qb, mb := e.checkIssue(t, t.entry(off))
			blockQ = blockQ || qb
			blockMem = blockMem || mb
		}
	}
	return blockQ, blockMem
}

// checkIssue evaluates readiness without side effects (apart from MSHR-list
// compaction, which never changes a readiness result).
func (e *timingEngine) checkIssue(t *tThread, en *winEntry) (ready, blockQ, blockMem bool) {
	if max(en.srcDone[0], en.srcDone[1]) > e.now {
		// Waiting on an operand: always attributed to the backend, whether
		// the producer is a load or a functional unit.
		return false, false, true
	}
	switch en.kind {
	case kLoad:
		if en.parkDep {
			// An older store to the same address has not issued.
			return false, false, true
		}
		if !e.mshrAvailable(t.core) {
			return false, false, true
		}
		return true, false, false
	case kBarrier:
		return en.released, false, false
	case kHalt:
		// Halt serializes: it may only issue once every older instruction
		// has retired, otherwise the thread would be marked finished with
		// work still in flight.
		return t.count > 0 && t.win[t.head].seq == en.seq, false, false
	case kEnq, kEnqCtrl, kDeq, kPeek:
		// In-order among queue ops.
		if en.parkDep {
			return false, false, false
		}
		q := e.queues[en.q]
		switch en.kind {
		case kEnq, kEnqCtrl:
			if q.len() >= q.cap {
				return false, true, false
			}
			// A fanned data enqueue writes every destination in the same
			// cycle, so it needs space in all of them (all-or-nothing).
			if en.kind == kEnq && e.fan != nil {
				for _, d := range e.fan[en.q] {
					if dq := e.queues[d]; dq.len() >= dq.cap {
						return false, true, false
					}
				}
			}
		default:
			if q.len() == 0 || q.headReady() > e.now {
				return false, true, false
			}
		}
	}
	return true, false, false
}

// tryIssue attempts to issue the entry, applying side effects on success.
func (e *timingEngine) tryIssue(t *tThread, en *winEntry) (ok, blockQ, blockMem bool) {
	ready, qb, mb := e.checkIssue(t, en)
	if !ready {
		return false, qb, mb
	}
	te := &t.trace[en.seq]
	q := int(en.q)
	var done uint64
	switch en.kind {
	case kLoad:
		lat, missed := e.hier.Access(t.core, te.Addr, e.now)
		lat += e.extraMemLatency()
		done = e.now + lat
		if missed {
			e.mshrs[t.core] = append(e.mshrs[t.core], done)
		}
	case kStore:
		// Stores complete immediately from the pipeline's view (write
		// buffer); the cache access is charged for stats/energy.
		e.hier.Access(t.core, te.Addr, e.now)
		done = e.now + 1
	case kPrefetch:
		// Fire-and-forget: warms the cache without blocking the pipeline.
		if te.Addr != 0 {
			e.hier.Access(t.core, te.Addr, e.now)
		}
		done = e.now + 1
	case kEnq:
		e.queues[q].push(e.now + 1)
		e.wakeConsumer(q)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(q, e.queues[q].len(), e.now)
		}
		if e.fan != nil {
			// Duplicate the value into each fan-out destination: one issue
			// slot, but one physical queue write (and one energy event) per
			// destination.
			for _, d := range e.fan[q] {
				e.queues[d].push(e.now + 1)
				e.wakeConsumer(d)
				e.queueOps++
				if e.probe != nil {
					e.probe.QueueLen(d, e.queues[d].len(), e.now)
				}
			}
		}
	case kEnqCtrl:
		// Control values may be delivered late under fault injection; the
		// token sits in the queue but is not visible to the consumer until
		// its readyAt cycle, which delays everything FIFO-behind it too.
		e.queues[q].push(e.now + 1 + e.ctrlDelay(q))
		e.wakeConsumer(q)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(q, e.queues[q].len(), e.now)
		}
	case kDeq:
		e.queues[q].pop()
		e.wakeProducers(q)
		e.queueOps++
		done = e.now + 1
		if e.probe != nil {
			e.probe.QueueLen(q, e.queues[q].len(), e.now)
		}
	case kPeek:
		e.queueOps++
		done = e.now + 1
	case kHalt:
		t.finished = true
		done = e.now + 1
		if e.probe != nil {
			e.probe.ThreadDone(t.idx, e.now)
		}
	default:
		done = e.now + uint64(en.lat)
	}
	en.issued = true
	en.doneAt = done
	t.markIssued(en)
	if e.probe != nil {
		e.probe.Issued(t.idx, int(te.PC), e.now)
		if e.curPC < 0 {
			e.curThread, e.curPC = t.idx, int(te.PC)
		}
	}
	if en.redirect {
		pen := e.m.Cfg.MispredictPenalty
		if te.Flags&FlagHandlerFire != 0 {
			pen = e.m.Cfg.HandlerRedirectPenalty
		}
		t.redirectAt = done + pen
	}
	return true, false, false
}

// tickRA advances one reference accelerator by one cycle, reporting window
// occupancy changes to the probe.
func (e *timingEngine) tickRA(ra *tRA) bool {
	if e.probe == nil {
		return e.tickRASteps(ra)
	}
	before := len(ra.inflight) - ra.ifHead
	beforeLoads := ra.loads
	moved := e.tickRASteps(ra)
	if after := len(ra.inflight) - ra.ifHead; after != before || ra.loads != beforeLoads {
		e.probe.RAInflight(ra.id, after, ra.loads, e.now)
	}
	return moved
}

func (e *timingEngine) tickRASteps(ra *tRA) bool {
	moved := false
	// Deliver completed tokens in order.
	outq := e.queues[ra.outQ]
	for ra.ifHead < len(ra.inflight) && ra.inflight[ra.ifHead] <= e.now && outq.len() < outq.cap {
		outq.push(e.now + 1)
		e.wakeConsumer(ra.outQ)
		if e.probe != nil {
			e.probe.QueueLen(ra.outQ, outq.len(), e.now)
		}
		ra.ifHead++
		if ra.loads > 0 {
			ra.loads--
		}
		moved = true
		// Occupancy is bounded by the outstanding window; compact like
		// tQueue.pop so the buffer stays near the window size.
		if ra.ifHead > ra.outstanding && ra.ifHead*2 > len(ra.inflight) {
			ra.inflight = append(ra.inflight[:0], ra.inflight[ra.ifHead:]...)
			ra.ifHead = 0
		}
	}
	// Intake: bounded FSM steps per cycle, at most one load start.
	steps, loadsStarted := 0, 0
	inq := e.queues[ra.inQ]
	for ra.idx < len(ra.events) && steps < 4 {
		ev := ra.events[ra.idx]
		switch ev.Kind {
		case RAConsume:
			if inq.len() == 0 || inq.headReady() > e.now {
				return moved
			}
			inq.pop()
			e.wakeProducers(ra.inQ)
			if e.probe != nil {
				e.probe.QueueLen(ra.inQ, inq.len(), e.now)
			}
		case RALoad:
			if loadsStarted >= 1 || len(ra.inflight)-ra.ifHead >= ra.outstanding {
				return moved
			}
			lat, _ := e.hier.Access(ra.core, ev.Addr, e.now)
			lat += e.extraMemLatency()
			ra.inflight = append(ra.inflight, e.now+lat)
			ra.loads++
			loadsStarted++
			e.stats.RALoads++
			e.raEvents++
		case RAPass, RACtrlOut:
			if len(ra.inflight)-ra.ifHead >= ra.outstanding {
				return moved
			}
			ra.inflight = append(ra.inflight, e.now+1)
			e.raEvents++
		}
		ra.idx++
		steps++
		moved = true
	}
	return moved
}

// nextEvent returns the earliest future cycle at which something can happen.
// It examines window offsets [0, scanFrom+48), issued entries included,
// which differs from issueCore's candidate range; the fast-forward targets,
// and so Stats, depend on this.
func (e *timingEngine) nextEvent() uint64 {
	next := uint64(farFuture)
	note := func(v uint64) {
		if v > e.now && v < next {
			next = v
		}
	}
	for _, t := range e.threads {
		if t.finished {
			continue
		}
		if t.redirectSeq >= 0 && t.redirectAt < farFuture {
			note(t.redirectAt)
		}
		for off := 0; off < t.count && off < issueScanCap+t.scanFrom; off++ {
			en := &t.win[(t.head+off)&t.winMask]
			if en.issued {
				note(en.doneAt)
				continue
			}
			note(en.srcDone[0])
			note(en.srcDone[1])
			if en.kind == kDeq || en.kind == kPeek {
				if q := e.queues[en.q]; q.len() > 0 {
					note(q.headReady())
				}
			}
		}
	}
	for _, ra := range e.ras {
		if ra.ifHead < len(ra.inflight) {
			note(ra.inflight[ra.ifHead])
		}
		if ra.idx < len(ra.events) {
			q := e.queues[ra.inQ]
			if ra.events[ra.idx].Kind == RAConsume && q.len() > 0 {
				note(q.headReady())
			}
		}
	}
	return next
}

// Run executes the machine end to end: functional phase then timing phase.
func (m *Machine) Run() (*Stats, error) {
	ts, err := m.RunFunctional()
	if err != nil {
		return nil, err
	}
	return m.RunTiming(ts)
}
