package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event kinds emitted into the streaming event log. The set is small and
// closed on purpose: consumers (the errtrack tracker, errmap -replay)
// switch on Kind and must be able to enumerate what can appear.
const (
	EventPhase    = "phase"    // a pipeline phase completed on a rank
	EventExchange = "exchange" // one labelled exchange completed
	EventError    = "error"    // achieved compression error observed
	EventFault    = "fault"    // an injected or detected transport fault
	EventRepair   = "repair"   // the healer repaired a damaged peer slot
	EventFallback = "fallback" // a peer escalated to lossless fallback
	EventRun      = "run"      // a new run/cell started (virtual time resets)
	// EventErrAttr carries one peer's compression-error attribution for
	// one reshape epoch: Label is the reshape, Peer the destination,
	// Value the block's worst relative error, Bound the method's bound,
	// and MaxAbs/RMS/N the block-level error statistics. The errtrack
	// layer aggregates these into the provenance ledger.
	EventErrAttr = "error_attribution"
	// EventRecovery marks one transition of the crash-recovery protocol
	// (internal/recover) or of the exchange re-promotion hysteresis. Label
	// carries the transition ("checkpoint", "commit", "crash_verdict",
	// "rollback", "respawn", "resume", "give_up", "probe", "repromote");
	// Value the epoch involved (-1 when none), and Msg the diagnostic.
	// Replays validate the sequencing: a resume of epoch e must follow a
	// commit of epoch e.
	EventRecovery = "recovery"
	// EventEnd is the end-of-stream marker a session emits as its very
	// last event before closing the JSONL sink; Value carries the final
	// sequence number so replays can prove the stream arrived whole.
	EventEnd = "run_end"
)

// Event is one line of the streaming JSONL event log: something that
// happened at virtual time T on a rank. Optional fields stay at their
// zero value; Peer uses -1 for "no peer" because rank 0 is a valid peer.
type Event struct {
	T     float64 `json:"t"`               // virtual seconds since run start
	Run   int64   `json:"run"`             // run sequence number (see EventRun)
	Seq   int64   `json:"seq,omitempty"`   // 1-based emission sequence number (stream integrity)
	Rank  int     `json:"rank"`            // reporting rank; -1 = engine/driver
	Kind  string  `json:"kind"`            // one of the Event* constants
	Label string  `json:"label,omitempty"` // phase name, reshape label, fault kind, recovery transition
	Peer  int     `json:"peer"`            // the other rank involved; -1 = none
	Value float64 `json:"value"`           // duration, error, epoch, delay — kind-specific
	Bound float64 `json:"bound,omitempty"` // error events: the configured bound
	// Error-attribution statistics (EventErrAttr only): the block's
	// largest absolute error, root-mean-square error, and value count.
	MaxAbs float64 `json:"max_abs,omitempty"`
	RMS    float64 `json:"rms,omitempty"`
	N      int64   `json:"n,omitempty"`
	Msg    string  `json:"msg,omitempty"` // free-form detail
}

// EventLog is the live stream of Events: it counts them, optionally
// writes every event through to a JSONL sink as it happens, and fans
// events out to registered observers (the errtrack tracker). A nil
// *EventLog is valid and drops everything at the cost of one pointer
// test.
type EventLog struct {
	mu        sync.Mutex
	total     int64
	counts    map[string]int64
	run       int64
	sink      io.Writer
	sinkErr   error
	observers []func(Event)
}

// NewEventLog creates an empty event log.
func NewEventLog() *EventLog {
	return &EventLog{counts: make(map[string]int64)}
}

// SetSink attaches a write-through JSONL sink; every subsequent event is
// appended to it as one JSON object per line. The caller owns buffering
// and closing. The first write error is remembered (SinkErr) and stops
// further writes.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.sinkErr = nil
	l.mu.Unlock()
}

// SinkErr returns the first error the JSONL sink reported, if any.
func (l *EventLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Observe registers fn to be called for every subsequent event, under
// the log's lock and in sequence order, so an observer sees the events
// in the order the JSONL sink (and a replay of it) holds them. fn must
// not Emit or call any other method of the log: it would deadlock.
// Register all observers before the run starts; registration is not
// synchronized against concurrent Emit.
func (l *EventLog) Observe(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.observers = append(l.observers, fn)
}

// StartRun advances the run sequence number and emits an EventRun
// marker. Drivers call it once per cell/seed so consumers know virtual
// time restarted at zero (the errtrack tracker opens a new cell).
func (l *EventLog) StartRun(label string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.run++
	l.mu.Unlock()
	l.Emit(Event{Kind: EventRun, Label: label, Rank: -1, Peer: -1})
}

// Emit records one event: it is numbered and counted, written through
// the sink, and fanned out to the observers, all under the log's lock.
// Safe for concurrent use.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	ev.Run = l.run
	l.total++
	ev.Seq = l.total
	l.counts[ev.Kind]++
	if l.sink != nil && l.sinkErr == nil {
		line, err := json.Marshal(ev)
		if err == nil {
			line = append(line, '\n')
			_, err = l.sink.Write(line)
		}
		if err != nil {
			l.sinkErr = err
		}
	}
	for _, fn := range l.observers {
		fn(ev)
	}
	l.mu.Unlock()
}

// EmitEnd emits the end-of-stream marker: one final event whose Value is
// its own sequence number. A replay that does not find it as the last
// line knows the stream was truncated. Call it once, after all emitters
// have quiesced (concurrent Emit would race the marker past the end).
func (l *EventLog) EmitEnd() {
	if l == nil {
		return
	}
	l.mu.Lock()
	final := l.total + 1
	l.mu.Unlock()
	l.Emit(Event{Kind: EventEnd, Rank: -1, Peer: -1, Value: float64(final)})
}

// Total returns the number of events ever emitted.
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Counts returns a copy of the per-kind event counts.
func (l *EventLog) Counts() map[string]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}
