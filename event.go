package chordal

import "time"

// This file defines the unified event stream of a run: one typed Event
// carries every kind of progress notification — stage begin/end with
// timing, extraction iterations (whole-graph and per-shard), and the
// verify outcome — through one Observer. The service's SSE handler
// serializes Events directly: the Type is the SSE event name and the
// marshaled Event is the data payload.

// EventType discriminates the kinds of Event a run emits.
type EventType string

// The event kinds, in the order a run emits them. Stage begin events
// use the bare name "stage" (and iteration events "iteration") so the
// service's SSE wire format is a superset of what earlier releases
// emitted.
const (
	// EventStageBegin marks a pipeline stage starting; Stage carries its
	// name (acquire, relabel, extract, verify, write).
	EventStageBegin EventType = "stage"
	// EventStageEnd marks a pipeline stage finishing; Millis carries its
	// wall-clock duration.
	EventStageEnd EventType = "stageEnd"
	// EventIteration carries one extraction iteration's statistics;
	// Shard is set during sharded extraction and nil otherwise.
	EventIteration EventType = "iteration"
	// EventVerify carries the verify stage's outcome.
	EventVerify EventType = "verify"
	// EventAdmit carries one accepted stream delta (reason "admitted",
	// "bridge", or — when Repair re-admits a deferred edge — "repaired");
	// Delta holds the edge and its sequence number.
	EventAdmit EventType = "admit"
	// EventDefer carries one stream delta that did not join the
	// maintained subgraph: rejected for now ("deferred", queued for
	// Repair), already present ("present"), malformed ("invalid"), or
	// dropped because the deferred queue hit the spec's MaxDeferred
	// bound ("overflow" — never retested).
	EventDefer EventType = "defer"
	// EventRepair summarizes one repair pass over the deferred queue;
	// Repaired counts the edges it admitted (each also announced by its
	// own EventAdmit).
	EventRepair EventType = "repair"
)

// IterationEvent is the wire form of one extraction iteration's
// statistics, flattened into the Event JSON object. Field names match
// the service's SSE payloads.
type IterationEvent struct {
	// Index is the 1-based iteration number.
	Index int `json:"index"`
	// QueueSize is |Q1|, the number of lowest parents processed.
	QueueSize int `json:"queueSize"`
	// EdgesTested counts subset-condition evaluations.
	EdgesTested int64 `json:"edgesTested"`
	// EdgesAccepted counts edges admitted to the chordal set.
	EdgesAccepted int64 `json:"edgesAccepted"`
	// ScanWork is the total adjacency length scanned.
	ScanWork int64 `json:"scanWork"`
	// DurationMillis is the iteration's wall-clock time in
	// milliseconds. It is 0 for a one-worker extraction, which runs as
	// one sweep with no per-iteration wall time; its counts are exact.
	DurationMillis float64 `json:"durationMillis"`
}

// Event is one notification in a run's unified progress stream. Fields
// beyond Type are populated per kind; unset fields are omitted from the
// JSON form, so an Event marshals directly as an SSE data payload.
type Event struct {
	// Type is the event kind (and the SSE event name).
	Type EventType `json:"type"`
	// Stage names the pipeline stage for stage begin/end events.
	Stage string `json:"stage,omitempty"`
	// Cached marks a stage satisfied from a cache instead of executed
	// (the service's input-cache hits on the acquire stage).
	Cached bool `json:"cached,omitempty"`
	// Millis is the completed stage's wall-clock duration (stage end).
	Millis float64 `json:"millis,omitempty"`
	// Shard is the shard index of a sharded-extraction iteration; nil
	// for whole-graph iterations and non-iteration events.
	Shard *int `json:"shard,omitempty"`
	// Batch is the index of the batch item this event belongs to when
	// the run executes inside a Batch; nil for standalone runs. Events
	// of different batch items may interleave on a shared Observer.
	Batch *int `json:"batch,omitempty"`
	// IterationEvent flattens the iteration's wire statistics into the
	// event object; nil for non-iteration events.
	*IterationEvent
	// Delta is the stream delta an admit/defer event reports; nil for
	// every other kind.
	Delta *StreamDelta `json:"delta,omitempty"`
	// Repaired counts the edges one repair pass admitted (repair events).
	Repaired int `json:"repaired,omitempty"`
	// Chordal reports the verify stage's chordality check; nil except on
	// verify events.
	Chordal *bool `json:"chordal,omitempty"`
	// MaximalityAudited reports whether the bounded maximality audit ran
	// (verify events); ReAddableEdges counts the violations it found.
	MaximalityAudited bool `json:"maximalityAudited,omitempty"`
	ReAddableEdges    int  `json:"reAddableEdges,omitempty"`
}

// Observer receives a run's event stream. During sharded extraction it
// may be invoked concurrently for different shards; all other events
// arrive sequentially. A nil Observer disables event delivery.
type Observer func(Event)

// newStageEvent builds a stage-begin event.
func newStageEvent(stage string) Event {
	return Event{Type: EventStageBegin, Stage: stage}
}

// newStageEndEvent builds a stage-end event with its duration.
func newStageEndEvent(stage string, d time.Duration) Event {
	return Event{Type: EventStageEnd, Stage: stage, Millis: durationMillis(d)}
}

// newIterationEvent builds an iteration event; shard is nil for
// whole-graph extraction.
func newIterationEvent(shard *int, it IterationStats) Event {
	return Event{
		Type:  EventIteration,
		Shard: shard,
		IterationEvent: &IterationEvent{
			Index:          it.Index,
			QueueSize:      it.QueueSize,
			EdgesTested:    it.EdgesTested,
			EdgesAccepted:  it.EdgesAccepted,
			ScanWork:       it.ScanWork,
			DurationMillis: durationMillis(it.Duration),
		},
	}
}

// StreamDelta is the wire form of one streamed edge decision: the
// delta's sequence number within its session, the edge, and how the
// admission kernel ruled (Reason carries the incremental.Reason wire
// value verbatim).
type StreamDelta struct {
	// Seq is the 1-based position of this decision in the session's
	// event order (pushes and repair re-admissions share one sequence).
	Seq int64 `json:"seq"`
	// U and V are the delta's endpoints as submitted (canonicalized to
	// U < V for accepted edges).
	U int32 `json:"u"`
	V int32 `json:"v"`
	// Accepted reports whether the edge joined the maintained subgraph.
	Accepted bool `json:"accepted"`
	// Reason is the admission kernel's ruling: admitted, bridge,
	// repaired, deferred, present, invalid, or overflow.
	Reason string `json:"reason"`
}

// newDeltaEvent builds the admit/defer event for one stream decision.
func newDeltaEvent(d StreamDelta) Event {
	t := EventDefer
	if d.Accepted {
		t = EventAdmit
	}
	return Event{Type: t, Delta: &d}
}

// newRepairEvent builds the repair-pass summary event.
func newRepairEvent(repaired int) Event {
	return Event{Type: EventRepair, Repaired: repaired}
}

// newVerifyEvent builds the verify-outcome event.
func newVerifyEvent(ok, audited bool, reAddable int) Event {
	return Event{Type: EventVerify, Chordal: &ok, MaximalityAudited: audited, ReAddableEdges: reAddable}
}

// durationMillis converts a duration to fractional milliseconds, the
// unit every wire payload uses.
func durationMillis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
