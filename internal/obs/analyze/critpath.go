package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// SegKind classifies a critical-path segment.
type SegKind uint8

const (
	// SegSpan is time on a rank's host timeline inside a recorded span.
	SegSpan SegKind = iota
	// SegWire is time a transfer spent on the wire (injection to
	// arrival, including queueing and latency).
	SegWire
	// SegIdle is time on a rank's host timeline not covered by any span
	// (barrier gaps, scheduling).
	SegIdle
)

// Segment is one link of the critical-path chain. Segments are
// contiguous in virtual time: each begins where the previous one ends,
// so their durations sum exactly to the end-to-end time.
type Segment struct {
	Kind       SegKind
	Rank       int       // the rank whose timeline this is (source rank for wire)
	Phase      obs.Phase // valid for SegSpan: the innermost span's phase
	Top        obs.Phase // valid for SegSpan: the containing top-level span's phase
	Link       string    // valid for SegWire: "node0->node2 inter" / "node1 bus" / "rank3 local"
	Bytes      int64     // wire payload for SegWire
	Begin, End float64
}

// Duration returns the segment's extent in seconds.
func (s Segment) Duration() float64 { return s.End - s.Begin }

// Label names the segment for reports.
func (s Segment) Label() string {
	switch s.Kind {
	case SegWire:
		return "wire " + s.Link
	case SegIdle:
		return "idle"
	default:
		return s.Phase.String()
	}
}

// Path is the extracted critical path: the dependency chain that bounds
// the recording's end-to-end virtual time.
type Path struct {
	Start, End float64
	// BoundRank is the rank whose final span determines End.
	BoundRank int
	Segments  []Segment // in increasing time order
}

// PhaseSeconds aggregates the path per segment label (phase name,
// "wire <link kind>", or "idle").
func (p Path) PhaseSeconds() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range p.Segments {
		key := s.Label()
		if s.Kind == SegWire {
			key = "wire " + wireKindOf(s.Link)
		}
		out[key] += s.Duration()
	}
	return out
}

// LinkSeconds aggregates wire segments per concrete link.
func (p Path) LinkSeconds() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range p.Segments {
		if s.Kind == SegWire {
			out[s.Link] += s.Duration()
		}
	}
	return out
}

func wireKindOf(link string) string {
	// Link strings are "nodeA->nodeB inter", "nodeN bus", "rankR local".
	for i := len(link) - 1; i >= 0; i-- {
		if link[i] == ' ' {
			return link[i+1:]
		}
	}
	return link
}

func linkName(ev obs.WireEvent) string {
	switch ev.Kind {
	case "inter":
		return fmt.Sprintf("node%d->node%d inter", ev.SrcNode, ev.DstNode)
	case "intra":
		return fmt.Sprintf("node%d bus", ev.SrcNode)
	default:
		return fmt.Sprintf("rank%d local", ev.Src)
	}
}

// CriticalPath walks the dependency graph backward from the last host
// span end: along each rank's timeline, and — whenever a wire arrival is
// the latest event below the current point — across the wire to the
// sender at injection time. The chosen arrival is the standard
// last-arrival heuristic: inside a blocking span (fence, exchange), the
// transfer that arrived last is what the fence actually waited for.
func CriticalPath(t *Trace) Path {
	start, end, ok := t.Extent()
	if !ok {
		return Path{}
	}
	eps := (end - start) * 1e-12

	// Per-rank top-level/nested host spans; per-rank inbound arrivals.
	top := make(map[int][]obs.Span)
	nested := make(map[int][]obs.Span)
	for _, id := range t.Ranks() {
		top[id], nested[id] = splitNesting(t.hostSpans(id))
	}
	arrivals := make(map[int][]obs.WireEvent)
	for _, ev := range t.Wire {
		if ev.Src == ev.Dst {
			continue // local copies cannot cross rank timelines
		}
		arrivals[ev.Dst] = append(arrivals[ev.Dst], ev)
	}
	for id := range arrivals {
		evs := arrivals[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Arrival < evs[j].Arrival })
	}

	p := Path{Start: start, End: end, BoundRank: -1}
	cur, curT := -1, end
	for _, id := range t.Ranks() {
		if spans := top[id]; len(spans) > 0 && spans[len(spans)-1].End >= curT-eps {
			if cur == -1 {
				cur = id
			}
		}
	}
	if cur == -1 {
		return p
	}
	p.BoundRank = cur

	var rev []Segment // built backward
	guard := 0
	for curT > start+eps {
		if guard++; guard > 1<<20 {
			break // malformed trace; return what we have
		}
		spans := top[cur]
		// Latest span beginning strictly before curT.
		idx := sort.Search(len(spans), func(i int) bool { return spans[i].Begin >= curT-eps }) - 1
		lower := start
		covered := false
		if idx >= 0 {
			if spans[idx].End >= curT-eps {
				lower, covered = spans[idx].Begin, true
			} else {
				lower = spans[idx].End // gap [spans[idx].End, curT]
			}
		}
		// Binding arrival: the latest transfer into cur arriving in
		// (lower, curT] whose injection makes backward progress.
		var ev *obs.WireEvent
		evs := arrivals[cur]
		for i := sort.Search(len(evs), func(i int) bool { return evs[i].Arrival > curT+eps }) - 1; i >= 0; i-- {
			if evs[i].Arrival <= lower+eps {
				break
			}
			if evs[i].Injected < evs[i].Arrival-eps && evs[i].Injected < curT-eps {
				ev = &evs[i]
				break
			}
		}
		if ev != nil {
			rev = appendRankSegments(rev, cur, ev.Arrival, curT, spans, nested[cur], covered)
			rev = append(rev, Segment{
				Kind: SegWire, Rank: ev.Src, Link: linkName(*ev), Bytes: int64(ev.Bytes),
				Begin: ev.Injected, End: ev.Arrival,
			})
			cur, curT = ev.Src, ev.Injected
			continue
		}
		rev = appendRankSegments(rev, cur, lower, curT, spans, nested[cur], covered)
		if curT = lower; !covered && idx < 0 {
			break // nothing earlier on this rank and no arrival: done
		}
	}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Segments = append(p.Segments, rev[i])
	}
	return p
}

// appendRankSegments splits [a, b] on one rank's timeline into
// phase-attributed segments (appended in backward order): parts covered
// by a top-level span take its phase — refined to the innermost nested
// span where one overlaps — and uncovered parts become idle.
func appendRankSegments(rev []Segment, rank int, a, b float64, top, nested []obs.Span, covered bool) []Segment {
	if b-a <= 0 {
		return rev
	}
	type piece struct {
		begin, end float64
		phase, top obs.Phase
		span       bool
	}
	var pieces []piece
	cur := a
	for _, s := range top {
		if s.End <= a || s.Begin >= b {
			continue
		}
		lo, hi := s.Begin, s.End
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if lo > cur {
			pieces = append(pieces, piece{cur, lo, 0, 0, false})
		}
		pieces = append(pieces, piece{lo, hi, s.Phase, s.Phase, true})
		cur = hi
	}
	if cur < b {
		pieces = append(pieces, piece{cur, b, 0, 0, false})
	}
	// Refine span pieces by nested detail spans (fence, compress-wait).
	var out []piece
	for _, pc := range pieces {
		if !pc.span {
			out = append(out, pc)
			continue
		}
		cur := pc.begin
		for _, n := range nested {
			if n.End <= pc.begin || n.Begin >= pc.end || n.End <= n.Begin {
				continue
			}
			lo, hi := n.Begin, n.End
			if lo < pc.begin {
				lo = pc.begin
			}
			if hi > pc.end {
				hi = pc.end
			}
			if lo < cur {
				continue // deeper nesting; keep first (outermost detail) attribution
			}
			if lo > cur {
				out = append(out, piece{cur, lo, pc.phase, pc.top, true})
			}
			out = append(out, piece{lo, hi, n.Phase, pc.top, true})
			cur = hi
		}
		if cur < pc.end {
			out = append(out, piece{cur, pc.end, pc.phase, pc.top, true})
		}
	}
	for i := len(out) - 1; i >= 0; i-- {
		pc := out[i]
		seg := Segment{Kind: SegIdle, Rank: rank, Begin: pc.begin, End: pc.end}
		if pc.span {
			seg.Kind, seg.Phase, seg.Top = SegSpan, pc.phase, pc.top
		}
		rev = append(rev, seg)
	}
	return rev
}
