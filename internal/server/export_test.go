package server

import "net/http"

// Handler exposes the server's mux so tests can drive routes without a
// listener — the only way to reach a draining server, whose listener
// Shutdown closes first.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// BeginDrain flips the drain gate without the rest of Shutdown.
func (s *Server) BeginDrain() { s.gate.Drain() }

// HoldSlots takes every free global execution slot; release frees them.
func (s *Server) HoldSlots() (release func()) { return hold(s.slots) }

// HoldSession takes every free slot of the session named id.
func (s *Server) HoldSession(id string) (release func()) {
	return hold(s.sessions.get(id).slots)
}

func hold(p chan struct{}) (release func()) {
	n := cap(p) - len(p)
	for i := 0; i < n; i++ {
		p <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-p
		}
	}
}

// PostRoutes maps each POST route's path to whether it holds a global
// execution slot.
func (s *Server) PostRoutes() map[string]bool {
	m := map[string]bool{}
	for _, rt := range s.routes() {
		m[rt.path] = rt.slot
	}
	return m
}
