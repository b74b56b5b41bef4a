package rpc

// The node-side tests drive the SessionTable through the names the serve
// path's table carries in them.

func newDedupCache(capacity int) *SessionTable {
	t := NewSessionTable()
	t.cap = capacity
	return t
}

func (t *SessionTable) len() int { return t.Len() }
