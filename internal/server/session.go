package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sudaf/internal/core"
	"sudaf/internal/gate"
	"sudaf/internal/sqlparse"
)

// prepared is a statement handle: the SQL text, validated once at
// prepare time (every execution parses it again), and its execution
// mode, fixed.
type prepared struct {
	sql  string
	mode core.Mode
}

// session is one server-side client session: a namespace for prepared
// statements plus a per-session concurrency bound, so one chatty client
// cannot monopolize the engine's admission slots.
type session struct {
	id string
	// slots bounds this session's concurrent requests (nil = unbounded);
	// the zero queue admits no waiters, so a session at its cap sheds.
	slots gate.Slots
	queue gate.Queue

	mu       sync.Mutex
	prepared map[string]*prepared
	nextPrep int
	closed   bool
}

func (ss *session) prepare(sql string, mode core.Mode) (string, error) {
	// Parse eagerly so a bad statement fails at prepare time, not on
	// every execution.
	if _, err := sqlparse.Parse(sql); err != nil {
		return "", err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return "", fmt.Errorf("session %s closed", ss.id)
	}
	ss.nextPrep++
	h := fmt.Sprintf("p%d", ss.nextPrep)
	ss.prepared[h] = &prepared{sql: sql, mode: mode}
	return h, nil
}

func (ss *session) lookup(handle string) (*prepared, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	p, ok := ss.prepared[handle]
	return p, ok
}

// sessions is the server's session registry.
type sessions struct {
	maxOpen     int // 0 = unbounded
	concurrency int // per-session slot count, 0 = unbounded

	mu     sync.Mutex
	open   map[string]*session
	nextID atomic.Int64
	opened atomic.Int64 // lifetime total, for the metrics registry
}

func newSessions(maxOpen, concurrency int) *sessions {
	return &sessions{
		maxOpen:     maxOpen,
		concurrency: concurrency,
		open:        map[string]*session{},
	}
}

// create opens a new session, enforcing the open-session cap.
func (sr *sessions) create() (*session, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.maxOpen > 0 && len(sr.open) >= sr.maxOpen {
		return nil, fmt.Errorf("session cap reached (%d open)", sr.maxOpen)
	}
	id := fmt.Sprintf("s%d", sr.nextID.Add(1))
	ss := &session{id: id, prepared: map[string]*prepared{}}
	if sr.concurrency > 0 {
		ss.slots = make(gate.Slots, sr.concurrency)
	}
	sr.open[id] = ss
	sr.opened.Add(1)
	return ss, nil
}

// get returns the open session id names, or nil.
func (sr *sessions) get(id string) *session {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.open[id]
}

// close removes a session; its prepared handles die with it. In-flight
// requests already holding a slot finish normally.
func (sr *sessions) close(id string) bool {
	sr.mu.Lock()
	ss, ok := sr.open[id]
	delete(sr.open, id)
	sr.mu.Unlock()
	if !ok {
		return false
	}
	ss.mu.Lock()
	ss.closed = true
	ss.prepared = map[string]*prepared{}
	ss.mu.Unlock()
	return true
}

// closeAll closes every session (server shutdown).
func (sr *sessions) closeAll() {
	sr.mu.Lock()
	all := make([]*session, 0, len(sr.open))
	for _, ss := range sr.open {
		all = append(all, ss)
	}
	sr.open = map[string]*session{}
	sr.mu.Unlock()
	for _, ss := range all {
		ss.mu.Lock()
		ss.closed = true
		ss.prepared = map[string]*prepared{}
		ss.mu.Unlock()
	}
}

// numOpen reports the open-session count.
func (sr *sessions) numOpen() int {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.open)
}
