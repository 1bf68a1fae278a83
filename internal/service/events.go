package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// sseEvent is one pre-marshaled server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// eventLog is the append-only event log of a job or a stream session.
// It has no lock of its own: the owner's mutex guards it, so a state
// change and its event land in one critical section. The zero value
// is an empty log.
type eventLog struct {
	events  []sseEvent
	changed chan struct{} // closed by the next add; made by since
}

// add marshals data, appends it as one event and wakes followers.
func (l *eventLog) add(name string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		payload = []byte(`{}`)
	}
	l.events = append(l.events, sseEvent{name, payload})
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// since returns the events after cursor and a channel closed by the
// next add.
func (l *eventLog) since(cursor int) ([]sseEvent, <-chan struct{}) {
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.events[cursor:], l.changed
}

// eventSource is a log's owner as followers read it: the events after
// cursor, whether the owner is terminal, and a channel closed by the
// next append.
type eventSource interface {
	eventsSince(cursor int) (evs []sseEvent, terminal bool, changed <-chan struct{})
}

// follow replays src's log from the start and then follows it live,
// handing emit each round's new events (possibly none), until src is
// terminal, ctx ends, or emit returns false.
func follow(ctx context.Context, src eventSource, emit func([]sseEvent) bool) {
	for cursor := 0; ; {
		evs, terminal, changed := src.eventsSince(cursor)
		if !emit(evs) || terminal {
			return
		}
		cursor += len(evs)
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// startSSE sends the headers of a server-sent event stream, or answers
// 500 and returns false when w cannot stream.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("service: response writer cannot stream"))
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	return flusher, true
}

// serveSSE streams src's event log: replayed, then followed live until
// the terminal event or client disconnect.
func serveSSE(w http.ResponseWriter, r *http.Request, src eventSource) {
	flusher, ok := startSSE(w)
	if !ok {
		return
	}
	follow(r.Context(), src, func(evs []sseEvent) bool {
		for _, e := range evs {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.name, e.data)
		}
		flusher.Flush()
		return true
	})
}
