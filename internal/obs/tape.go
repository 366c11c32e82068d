package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Tape is the causal record of one pipeline run. The flow runtime fills
// it live — each element appends only its own entries, so recording
// needs no locks — and replays it onto a Trace after the run.
//
// The point of the indirection: goroutine scheduling decides *when* a
// stage processed a batch in wall-clock time, but the tape only records
// *what* happened (batch sizes, charged costs, emission counts, link
// hop costs), all of which are schedule-independent. Replay then
// derives virtual timestamps purely from the tape, so a fixed-seed run
// produces a byte-identical trace no matter how the host interleaved
// the stage goroutines — the property CI's trace diff depends on.
type Tape struct {
	// Depth is the per-port credit depth; replay uses it to model
	// backpressure (a sender blocks until the receiver has finished the
	// batch that occupied the slot depth batches ago).
	Depth int
	// Start is the virtual instant the run began; replay starts every
	// track there, kernel setups included.
	Start  sim.VTime
	Source SourceTape
	Stages []*StageTape
}

// NewTape returns a tape for a pipeline of the given port depth.
func NewTape(depth int) *Tape { return &Tape{Depth: depth} }

// SourceTape records the pipeline source's emissions.
type SourceTape struct {
	// Track attributes source-side credit stalls (usually the storage
	// processor's name).
	Track string
	Emits []Emission
}

// Emission is one source batch: when the scan's virtual clock said it
// was ready, and how large it was.
type Emission struct {
	At    sim.VTime
	Bytes sim.Bytes
}

// StageTape records one stage's inputs and the transfers feeding it.
type StageTape struct {
	Name  string
	Track string // hosting device name; falls back to Name when empty
	// Setup is the kernel-installation cost charged when the stream
	// started.
	Setup sim.VTime
	// Inputs lists the batches the stage processed, in arrival order.
	Inputs []TapeInput
	// Xfers lists the link transfers that delivered each input, index-
	// aligned with Inputs (appended by the upstream sender).
	Xfers []Xfer
	// FlushOuts counts batches emitted by Flush at end-of-stream.
	FlushOuts int
	// FaultInput is the input index at which a runtime fault (offline
	// device) killed the stage, -1 when the stage ran clean.
	FaultInput  int
	FaultDetail string
}

// TapeInput is one processed batch: its size, the virtual cost charged
// to the hosting device, and how many outputs Process emitted for it.
type TapeInput struct {
	Bytes sim.Bytes
	Cost  sim.VTime
	Outs  int
}

// Xfer is the fabric crossing of one batch: the links traversed in
// order with their individual costs.
type Xfer struct {
	Bytes sim.Bytes
	Hops  []Hop
}

// Hop is one link crossing.
type Hop struct {
	Link string
	Cost sim.VTime
}

// Replay derives the virtual-time span timeline from the tape and
// records it on tr, returning the replayed makespan.
//
// The model: each device (track) is one serial resource — spans on a
// track never overlap, even for distinct stages placed on the same
// device. A stage starts processing a batch at max(track free, batch
// arrival) and holds the track for the charged cost. Batches leave at
// processing end, cross their recorded link hops (transfers pipeline,
// so transfer spans on a link track may overlap), and arrive downstream.
// A send blocks — without holding the track — until the receiver has
// finished the batch occupying its credit slot (depth batches earlier);
// the wait is recorded as a credit-stall event. Upstream credit release
// is modelled at input completion (credit-message batching is ignored;
// it shifts availability by at most one credit batch). Kernel setups
// all happen at stream start (Start), serialized per track.
func (t *Tape) Replay(tr *Trace) sim.VTime {
	if tr == nil {
		return 0
	}
	S := len(t.Stages)
	depth := t.Depth
	if depth < 1 {
		depth = 1
	}
	var makespan sim.VTime
	bump := func(v sim.VTime) {
		if v > makespan {
			makespan = v
		}
	}
	if S == 0 {
		for _, em := range t.Source.Emits {
			bump(em.At)
		}
		return makespan
	}

	trackOf := func(st *StageTape) string {
		if st.Track != "" {
			return st.Track
		}
		return st.Name
	}
	clocks := make(map[string]sim.VTime, S)
	for _, st := range t.Stages {
		clocks[trackOf(st)] = t.Start
	}

	// Kernel installations precede the stream, serialized per track.
	for _, st := range t.Stages {
		if st.Setup <= 0 {
			continue
		}
		trk := trackOf(st)
		start := clocks[trk]
		tr.AddSpan(Span{Name: st.Name + ".setup", Track: trk, Kind: SpanSetup,
			Start: start, End: start + st.Setup, Seq: -1})
		clocks[trk] = start + st.Setup
		bump(start + st.Setup)
	}

	arrivals := make([][]sim.VTime, S)
	procDone := make([][]sim.VTime, S) // input completion incl. blocked sends
	inIdx := make([]int, S)
	outIdx := make([]int, S)
	pending := make([]int, S) // outputs awaiting send for the current phase
	pendingFrom := make([]sim.VTime, S)
	inFlight := make([]bool, S) // an input's sends are still draining
	upClosed := make([]bool, S) // upstream end-of-stream delivered
	flushStarted := make([]bool, S)
	flushDone := make([]bool, S)
	faulted := make([]bool, S)
	cumIn := make([]sim.Bytes, S)

	// trySend delivers output k into stage dst (dst == S is the sink).
	// It returns false when the receiver's credit slot is not yet
	// resolvable; the caller retries on a later round.
	trySend := func(dst, k int, ready sim.VTime, fromTrack string, seq int64) (sim.VTime, bool) {
		if dst >= S {
			bump(ready)
			return ready, true
		}
		st := t.Stages[dst]
		depart := ready
		if k >= depth {
			if len(procDone[dst]) <= k-depth {
				return 0, false
			}
			if free := procDone[dst][k-depth]; free > depart {
				tr.AddEvent(Event{Name: "credit-stall", Track: fromTrack, At: depart,
					Detail: fmt.Sprintf("blocked %s on a credit into %s", free-depart, st.Name)})
				depart = free
			}
		}
		at := depart
		if k < len(st.Xfers) {
			x := st.Xfers[k]
			for _, h := range x.Hops {
				tr.AddSpan(Span{Name: "xfer", Track: h.Link, Kind: SpanTransfer,
					Start: at, End: at + h.Cost, Seq: seq, Bytes: x.Bytes})
				at += h.Cost
			}
		}
		arrivals[dst] = append(arrivals[dst], at)
		bump(at)
		return depart, true
	}

	srcIdx := 0
	var srcShift sim.VTime // accumulated source backpressure delay
	srcDone := false

	stepSource := func() bool {
		if srcIdx >= len(t.Source.Emits) {
			return false
		}
		em := t.Source.Emits[srcIdx]
		ready := em.At + srcShift
		depart, ok := trySend(0, srcIdx, ready, t.Source.Track, int64(srcIdx))
		if !ok {
			return false
		}
		if depart > ready {
			// The blocked scan resumes late; every later nominal
			// emission time shifts by the stall.
			srcShift += depart - ready
		}
		srcIdx++
		return true
	}

	stepStage := func(i int) bool {
		st := t.Stages[i]
		trk := trackOf(st)
		progress := false
		for {
			// Drain pending sends for the in-flight phase.
			for pending[i] > 0 {
				depart, ok := trySend(i+1, outIdx[i], pendingFrom[i], trk, int64(outIdx[i]))
				if !ok {
					return progress
				}
				outIdx[i]++
				pending[i]--
				if depart > pendingFrom[i] {
					pendingFrom[i] = depart
				}
				progress = true
			}
			if inFlight[i] {
				procDone[i] = append(procDone[i], pendingFrom[i])
				inFlight[i] = false
				progress = true
			}
			if flushStarted[i] {
				if !flushDone[i] {
					flushDone[i] = true
					progress = true
				}
				return progress
			}
			// Fault annotation: the stage died receiving this input.
			if st.FaultInput >= 0 && inIdx[i] == st.FaultInput && !faulted[i] {
				at := clocks[trk]
				if inIdx[i] < len(arrivals[i]) && arrivals[i][inIdx[i]] > at {
					at = arrivals[i][inIdx[i]]
				}
				tr.AddEvent(Event{Name: "fault", Track: trk, At: at, Detail: st.FaultDetail})
				faulted[i] = true
				progress = true
			}
			// Start the next input.
			if n := inIdx[i]; n < len(st.Inputs) && n < len(arrivals[i]) {
				in := st.Inputs[n]
				start := clocks[trk]
				if arrivals[i][n] > start {
					start = arrivals[i][n]
				}
				end := start + in.Cost
				if in.Cost > 0 {
					tr.AddSpan(Span{Name: st.Name, Track: trk, Kind: SpanStage,
						Start: start, End: end, Seq: int64(n), Bytes: in.Bytes})
				}
				clocks[trk] = end
				bump(end)
				cumIn[i] += in.Bytes
				tr.Sample(fmt.Sprintf("flow.%02d.%s.in_bytes", i, st.Name), "bytes",
					arrivals[i][n], float64(cumIn[i]))
				inIdx[i]++
				pending[i] = in.Outs
				pendingFrom[i] = end
				inFlight[i] = true
				progress = true
				continue
			}
			// Flush once the upstream closed and every input finished.
			if upClosed[i] && inIdx[i] == len(st.Inputs) && !faulted[i] && !flushStarted[i] {
				flushStarted[i] = true
				if st.FlushOuts > 0 {
					pending[i] = st.FlushOuts
					pendingFrom[i] = clocks[trk]
				}
				progress = true
				continue
			}
			return progress
		}
	}

	for {
		progress := stepSource()
		if !srcDone && srcIdx == len(t.Source.Emits) {
			srcDone = true
			upClosed[0] = true
			progress = true
		}
		for i := 0; i < S; i++ {
			if stepStage(i) {
				progress = true
			}
		}
		for i := 0; i < S-1; i++ {
			if flushDone[i] && !upClosed[i+1] {
				upClosed[i+1] = true
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return makespan
}
