package rpc

// The node-side tests drive the SessionTable through the names the serve
// path's table carries in them.

func newDedupCache(capacity int) *SessionTable { return NewSessionTable(capacity) }

func (t *SessionTable) len() int { return t.Len() }
