package netsim

// TraceBuffer is a bounded collector for Config.Tracer: it keeps the
// most recent Cap events in a ring, so long runs cannot grow trace
// memory without bound. Use Recorder as the Config.Tracer callback and
// read Events after Run.
type TraceBuffer struct {
	cap     int
	events  []TraceEvent
	next    int
	wrapped bool
}

// DefaultTraceCap bounds a TraceBuffer built with capacity <= 0.
const DefaultTraceCap = 1 << 20

// NewTraceBuffer creates a buffer holding at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceBuffer{cap: capacity}
}

// Recorder returns the callback to install as Config.Tracer.
func (b *TraceBuffer) Recorder() func(TraceEvent) {
	return b.add
}

func (b *TraceBuffer) add(ev TraceEvent) {
	if len(b.events) < b.cap {
		b.events = append(b.events, ev)
		return
	}
	b.events[b.next] = ev
	b.next++
	if b.next == b.cap {
		b.next = 0
	}
	b.wrapped = true
}

// Events returns the retained events in arrival order (oldest first).
func (b *TraceBuffer) Events() []TraceEvent {
	if !b.wrapped {
		return append([]TraceEvent(nil), b.events...)
	}
	out := make([]TraceEvent, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}
