// POST /v1/subscribe: continuous windowed queries over the wire.
//
// A subscription is a long-lived push stream, so it deliberately sits
// outside the global execution-slot semaphore: an idle subscriber costs
// one goroutine and one connection, and letting it pin an inflight slot
// would let a handful of subscribers starve the query path. What bounds
// the work is the engine itself — per-emission computation happens on
// the engine's subscription workers, paced by appends.
//
// Drain contract (mirrors docs/SERVING.md): when Shutdown begins, every
// active subscribe stream ends promptly with a clean end frame carrying
// the "server draining" event, so the server's request drain never
// waits on an idle subscriber; new subscribe requests are shed with the
// typed 503 like any other request.
package server

import (
	"context"
	"fmt"
	"net/http"

	"sudaf/internal/core"
	"sudaf/internal/errs"
)

func (s *Server) subscribeCall(body []byte) (*call, error) {
	req, err := DecodeSubscribeRequest(body)
	if err != nil {
		return nil, err
	}
	return &call{
		session: req.Session,
		run: func(ctx context.Context, w http.ResponseWriter) {
			s.subscribe(ctx, w, req)
		},
	}, nil
}

// subscribe streams one subscription until the client, the request's
// deadline, the engine or a server drain ends it. It occupies one of its
// session's concurrency slots for its whole life — a session's
// subscriber fleet is bounded the same way its query fan-out is.
func (s *Server) subscribe(ctx context.Context, w http.ResponseWriter, req *SubscribeRequest) {
	mode, _ := ModeFromString(req.Mode)
	sub, err := s.eng.Subscribe(ctx, req.SQL, mode)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()
	s.subscribeActive.Add(1)
	defer s.subscribeActive.Add(-1)

	emit := startStream(w)
	sentSchema := false
	emits := 0
	for {
		select {
		case wr, open := <-sub.Results():
			if !open {
				// The engine closed the stream: surface its terminal error,
				// or end cleanly (engine Close during drain).
				if err := sub.Err(); err != nil {
					emit(ErrorFrame(err))
				} else {
					emit(&Frame{Type: FrameEnd, Groups: emits})
				}
				return
			}
			if !sentSchema {
				if !emit(SchemaFrame(wr.Table)) {
					return
				}
				sentSchema = true
			}
			if !emit(subscribeFrame(wr)) {
				return // client went away; the deferred Close detaches us
			}
			s.subscribeEmits.Add(1)
			emits++
			if req.MaxEmits > 0 && emits >= req.MaxEmits {
				emit(&Frame{Type: FrameEnd, Groups: emits})
				return
			}
		case <-ctx.Done():
			emit(ErrorFrame(fmt.Errorf("%w: %v", errs.ErrCanceled, ctx.Err())))
			return
		case <-s.gate.Done():
			emit(&Frame{Type: FrameEnd, Groups: emits, Events: []string{"server draining"}})
			return
		}
	}
}

// subscribeFrame renders one WindowResult as a tagged batch frame.
func subscribeFrame(wr *core.WindowResult) *Frame {
	f := BatchFrame(wr.Table)
	f.Window = &WindowMeta{
		Seq:           wr.Seq,
		Epoch:         wr.Epoch,
		FirstRow:      wr.FirstRow,
		LastRow:       wr.LastRow,
		NumericFaults: wr.NumericFaults,
	}
	return f
}
