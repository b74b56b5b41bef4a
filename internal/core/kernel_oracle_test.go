package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
)

// Differential oracle for the guard-selection kernel (guard.go scanLocked +
// tieSet). The reference below is the scan the kernel replaced — collect
// every eligible alternative by chasing slot -> call, then pick the minimum
// from a rotating start — kept here, test-only, as the arbiter: over seeded
// random object states and guard sets the kernel must find exactly the
// reference's minimum-pri alternatives, rotate through all of them, and
// evaluate each when/pri exactly as often as the contract says.

type refCandidate struct {
	guardIdx int
	pri      int
	s        *slot
}

func refScan(m *Mgr, guards []Guard) []refCandidate {
	var cands []refCandidate
	for gi := range guards {
		g := &guards[gi]
		switch g.kind {
		case guardAccept:
			e := g.res
			consider := func(s *slot) {
				if pri, ok := refAcceptEligible(m, g, e, s); ok {
					cands = append(cands, refCandidate{gi, pri, s})
				}
			}
			if g.slotIdx >= 0 {
				if s := e.slots[g.slotIdx]; s.state == slotAttached {
					consider(s)
				}
				continue
			}
			for _, s := range e.slots { // every element, not the index
				if s.state == slotAttached {
					consider(s)
				}
			}
		case guardAwait:
			e := g.res
			consider := func(s *slot) {
				if pri, ok := refAwaitEligible(m, g, e, s); ok {
					cands = append(cands, refCandidate{gi, pri, s})
				}
			}
			if g.slotIdx >= 0 {
				if s := e.slots[g.slotIdx]; s.state == slotReady {
					consider(s)
				}
				continue
			}
			for _, s := range e.slots {
				if s.state == slotReady {
					consider(s)
				}
			}
		case guardReceive:
			msg, ok := g.ch.PeekWhere(g.whenMsg)
			if !ok {
				continue
			}
			pri := g.priConst
			if g.priMsg != nil {
				pri = g.priMsg(msg)
			}
			cands = append(cands, refCandidate{guardIdx: gi, pri: pri})
		case guardCond:
			if g.cond() {
				cands = append(cands, refCandidate{guardIdx: gi, pri: g.priConst})
			}
		}
	}
	return cands
}

func refAcceptEligible(m *Mgr, g *Guard, e *entry, s *slot) (int, bool) {
	if g.whenAccept == nil && g.priAccept == nil {
		return g.priConst, true
	}
	cr := s.call
	a := &Accepted{m: m, call: cr, s: s, id: cr.id, Entry: e.spec.Name, Slot: s.index,
		Params: cr.params[:e.ipParams:e.ipParams]}
	if g.whenAccept != nil && !g.whenAccept(a) {
		return 0, false
	}
	pri := g.priConst
	if g.priAccept != nil {
		pri = g.priAccept(a)
	}
	return pri, true
}

func refAwaitEligible(m *Mgr, g *Guard, e *entry, s *slot) (int, bool) {
	if g.whenAwait == nil && g.priAwait == nil {
		return g.priConst, true
	}
	cr := s.call
	aw := &Awaited{m: m, call: cr, s: s, id: cr.id, Entry: e.spec.Name, Slot: s.index,
		Hidden: cr.hiddenResults, Err: cr.bodyErr}
	if cr.bodyErr == nil {
		aw.Results = cr.bodyResults[:e.ipResults:e.ipResults]
	} else if e.ipResults > 0 {
		aw.Results = make([]Value, e.ipResults)
	}
	if g.whenAwait != nil && !g.whenAwait(aw) {
		return 0, false
	}
	pri := g.priConst
	if g.priAwait != nil {
		pri = g.priAwait(aw)
	}
	return pri, true
}

// refPick is the replaced pickCandidate: first minimum from a rotating start.
func refPick(cands []refCandidate, rot int) refCandidate {
	n := len(cands)
	best := cands[rot%n]
	for k := 1; k < n; k++ {
		if c := cands[(rot+k)%n]; c.pri < best.pri {
			best = c
		}
	}
	return best
}

// evalLog counts closure evaluations per (guard, datum) while on.
type evalKey struct {
	guard int
	id    uint64 // call id; message value for receive guards; 0 for cond
}

type evalLog struct {
	on   bool
	when map[evalKey]int
	held map[evalKey]bool
	pri  map[evalKey]int
	bad  []string // handle fields that contradicted the guard's entry
}

func (l *evalLog) reset() {
	l.when, l.held, l.pri = map[evalKey]int{}, map[evalKey]bool{}, map[evalKey]int{}
}

func (l *evalLog) noteWhen(gi int, id uint64, held bool) bool {
	if l.on {
		k := evalKey{gi, id}
		l.when[k]++
		l.held[k] = held
	}
	return held
}

func (l *evalLog) notePri(gi int, id uint64, v int) int {
	if l.on {
		l.pri[evalKey{gi, id}]++
	}
	return v
}

type oracleEntry struct {
	name      string
	array     int
	ipParams  int // 0 or 1 of the entry's one parameter
	ipResults int // 0 or 1 of the entry's one result
	callers   int
}

func TestScanKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runKernelOracle(t, seed)
		})
	}
}

func runKernelOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nE := 2 + rng.Intn(3)
	ents := make([]oracleEntry, nE)
	total := 0
	opts := []Option{}
	var icpts []InterceptSpec
	for i := range ents {
		ents[i] = oracleEntry{
			name:      fmt.Sprintf("E%d", i),
			array:     1 + rng.Intn(12),
			ipParams:  rng.Intn(2),
			ipResults: rng.Intn(2),
		}
		ents[i].callers = rng.Intn(ents[i].array + 4) // some overflow into the wait queue
		total += ents[i].callers
		opts = append(opts, WithEntry(EntrySpec{Name: ents[i].name, Params: 1, Results: 1, Array: ents[i].array, Body: echoBody}))
		icpts = append(icpts, InterceptPR(ents[i].name, ents[i].ipParams, ents[i].ipResults))
	}
	// Callers' parameter values, drawn before the manager (which owns rng
	// from New onwards) starts. Few values: equal priorities are common.
	vals := make([]int, total)
	for i := range vals {
		vals[i] = rng.Intn(4)
	}
	ch := channel.New("oracle")
	for i, n := 0, rng.Intn(5); i < n; i++ {
		if err := ch.Send(10*i + rng.Intn(4)); err != nil { // distinct values
			t.Fatal(err)
		}
	}

	log := &evalLog{}
	done := make(chan struct{})
	manager := func(m *Mgr) {
		defer close(done)
		o := m.obj
		// Every caller pending before anything is accepted.
		if !pollUntil(func() bool {
			n := 0
			for _, e := range ents {
				n += m.Pending(e.name)
			}
			return n == total
		}) {
			t.Errorf("callers did not all arrive")
			return
		}
		// Start some calls of each entry and wait for their bodies: the
		// ready index the await guards range over.
		for _, e := range ents {
			rt := o.entries[e.name]
			o.mu.Lock()
			attached := len(rt.attached)
			o.mu.Unlock()
			k := rng.Intn(attached + 1)
			if k > 3 {
				k = 3
			}
			for j := 0; j < k; j++ {
				a, err := m.Accept(e.name)
				if err == nil {
					err = m.Start(a)
				}
				if err != nil {
					t.Errorf("start %s: %v", e.name, err)
					return
				}
			}
			if !pollUntil(func() bool {
				o.mu.Lock()
				defer o.mu.Unlock()
				return len(rt.ready) == k
			}) {
				t.Errorf("%s: bodies did not become ready", e.name)
				return
			}
		}

		guards := randomGuards(rng, log, ents, ch)
		for round := 0; round < 4; round++ {
			if !checkKernelAgainstReference(t, m, guards, log, rng.Intn(1000)) {
				return
			}
			// Perturb the dense indexes: accepting an arbitrary attached
			// call swap-removes its record, awaiting a ready one likewise.
			e := ents[rng.Intn(len(ents))]
			rt := o.entries[e.name]
			o.mu.Lock()
			var s *slot
			if n := len(rt.attached); n > 0 && rng.Intn(2) == 0 {
				s = rt.attached[rng.Intn(n)].s
				m.commitAcceptLocked(rt, s)
			} else if n := len(rt.ready); n > 0 {
				s = rt.ready[rng.Intn(n)].s
				m.commitAwaitLocked(rt, s)
			}
			o.mu.Unlock()
		}
	}

	o, err := New("Oracle", append(opts, WithManager(manager, icpts...))...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, e := range ents {
		for c := 0; c < e.callers; c++ {
			wg.Add(1)
			go func(name string, v int) {
				defer wg.Done()
				if _, err := o.Call(name, v); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Call(%s): %v", name, err)
				}
			}(e.name, vals[len(vals)-1])
			vals = vals[:len(vals)-1]
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("oracle manager stalled")
	}
	mustClose(t, o)
	wg.Wait()
	for _, b := range log.bad {
		t.Error(b)
	}
}

// pollUntil waits for cond and reports whether it came true. Unlike waitFor
// it never calls t.Fatal: the oracle's waits run on the manager goroutine.
func pollUntil(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// randomGuards builds 2..9 guards over the entries, the channel and pure
// conditions, each with an independent choice of acceptance condition and
// priority (none / constant / computed; few distinct values, so ties are
// common). Every closure reports to log and is a pure function of its datum.
func randomGuards(rng *rand.Rand, log *evalLog, ents []oracleEntry, ch *channel.Chan) []Guard {
	n := 2 + rng.Intn(8)
	guards := make([]Guard, 0, n)
	for gi := 0; gi < n; gi++ {
		gi := gi
		e := ents[rng.Intn(len(ents))]
		whenKind, priKind := rng.Intn(3), rng.Intn(4)
		mod := 2 + rng.Intn(2)
		var g Guard
		switch kind := rng.Intn(8); {
		case kind < 4: // accept, any element or one
			check := func(a *Accepted) {
				if a.Entry != e.name || len(a.Params) != e.ipParams || a.Slot < 0 || a.Slot >= e.array {
					log.bad = append(log.bad, fmt.Sprintf("guard %d: scratch handle %s[%d] with %d params, want %s with %d",
						gi, a.Entry, a.Slot, len(a.Params), e.name, e.ipParams))
				}
			}
			key := func(a *Accepted) int { // what conditions and priorities read
				if e.ipParams > 0 {
					return a.Params[0].(int)
				}
				return int(a.CallID())
			}
			g = OnAccept(e.name, func(*Accepted) {})
			if kind == 3 {
				g = g.Slot(rng.Intn(e.array))
			}
			if whenKind > 0 {
				g = g.When(func(a *Accepted) bool {
					check(a)
					return log.noteWhen(gi, a.CallID(), (key(a)%mod == 0) == (whenKind == 1))
				})
			}
			switch priKind {
			case 1:
				g = g.Pri(rng.Intn(3))
			case 2:
				g = g.PriAccept(func(a *Accepted) int { check(a); return log.notePri(gi, a.CallID(), key(a)%mod) })
			case 3:
				g = g.PriAccept(func(a *Accepted) int { check(a); return log.notePri(gi, a.CallID(), int(a.CallID())) })
			}
		case kind < 6: // await, any element or one
			key := func(aw *Awaited) int {
				if e.ipResults > 0 {
					return aw.Results[0].(int)
				}
				return int(aw.CallID())
			}
			check := func(aw *Awaited) {
				if aw.Entry != e.name || len(aw.Results) != e.ipResults || aw.Err != nil {
					log.bad = append(log.bad, fmt.Sprintf("guard %d: scratch handle %s with %d results (err %v), want %s with %d",
						gi, aw.Entry, len(aw.Results), aw.Err, e.name, e.ipResults))
				}
			}
			g = OnAwait(e.name, func(*Awaited) {})
			if kind == 5 {
				g = g.Slot(rng.Intn(e.array))
			}
			if whenKind > 0 {
				g = g.WhenAwait(func(aw *Awaited) bool {
					check(aw)
					return log.noteWhen(gi, aw.CallID(), (key(aw)%mod == 0) == (whenKind == 1))
				})
			}
			switch priKind {
			case 1:
				g = g.Pri(rng.Intn(3))
			case 2, 3:
				g = g.PriAwait(func(aw *Awaited) int { check(aw); return log.notePri(gi, aw.CallID(), key(aw)%mod) })
			}
		case kind == 6: // receive
			g = OnReceive(ch, func(channel.Message) {})
			if whenKind > 0 {
				g = g.WhenMsg(func(msg channel.Message) bool {
					v := msg[0].(int)
					return log.noteWhen(gi, uint64(v), (v%mod == 0) == (whenKind == 1))
				})
			}
			switch priKind {
			case 1:
				g = g.Pri(rng.Intn(3))
			case 2, 3:
				g = g.PriMsg(func(msg channel.Message) int { v := msg[0].(int); return log.notePri(gi, uint64(v), v%mod) })
			}
		default: // cond
			open := rng.Intn(3) > 0
			g = OnCond(func() bool { return log.noteWhen(gi, 0, open) }, func() {})
			if priKind > 0 {
				g = g.Pri(rng.Intn(3))
			}
		}
		guards = append(guards, g)
	}
	return guards
}

// checkKernelAgainstReference runs one kernel scan and one reference scan
// over the same locked state and compares them; it reports false once it
// has recorded a failure.
func checkKernelAgainstReference(t *testing.T, m *Mgr, guards []Guard, log *evalLog, rot0 int) bool {
	if err := m.prepare(guards); err != nil {
		t.Errorf("prepare: %v", err)
		return false
	}
	o := m.obj
	o.mu.Lock()
	defer o.mu.Unlock()
	o.drainIntakeLocked()
	m.inScan = true
	defer func() { m.inScan = false }()

	log.reset()
	log.on = true
	m.scanLocked(guards)
	log.on = false
	ties, min := append([]candidate(nil), m.ties.c...), m.ties.min
	ref := refScan(m, guards)

	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}

	// The dense indexes mirror the slots they were copied from.
	for _, e := range o.entries {
		for kind, list := range [][]pend{e.attached, e.ready} {
			want := []slotState{slotAttached, slotReady}[kind]
			for i, p := range list {
				if p.s.listPos != i || p.s.state != want || p.call != p.s.call || p.id != p.call.id || p.idx != p.s.index {
					fail("%s index[%d] = {slot %d pos %d state %v id %d}, slot has call id %d",
						e.spec.Name, i, p.idx, p.s.listPos, p.s.state, p.id, p.s.call.id)
				}
			}
		}
	}

	// Same minimum, same tie set (the reference's candidates at its minimum).
	if len(ref) == 0 {
		if len(ties) != 0 {
			fail("kernel found %d alternatives, reference none", len(ties))
		}
	} else {
		refMin := ref[0].pri
		for _, c := range ref {
			if c.pri < refMin {
				refMin = c.pri
			}
		}
		want := map[candidate]bool{}
		for _, c := range ref {
			if c.pri == refMin {
				want[candidate{c.guardIdx, c.s}] = true
			}
		}
		if len(ties) == 0 || min != refMin {
			fail("kernel minimum = %d over %d ties, reference minimum %d over %d", min, len(ties), refMin, len(want))
		}
		got := map[candidate]bool{}
		for _, c := range ties {
			if !want[c] {
				fail("kernel tie {guard %d slot %p} is not a reference minimum", c.guardIdx, c.s)
			}
			if got[c] {
				fail("kernel tie {guard %d slot %p} listed twice", c.guardIdx, c.s)
			}
			got[c] = true
		}
		if len(got) != len(want) {
			fail("kernel ties = %d, reference has %d at the minimum", len(got), len(want))
		}
		// Whatever the rotation, both pick the minimum, and the kernel's
		// picks visit the whole tie set within 2·len(ties) selections.
		if len(ties) > 0 {
			seen := map[candidate]bool{}
			for rot := rot0; rot < rot0+2*len(ties); rot++ {
				c := m.ties.pick(rot)
				if !want[c] {
					fail("rot %d: kernel picked a non-minimum alternative", rot)
				}
				seen[c] = true
				if r := refPick(ref, rot); r.pri != min {
					fail("rot %d: reference picked pri %d, kernel minimum %d", rot, r.pri, min)
				}
			}
			if len(seen) != len(want) {
				fail("rotation reached %d of %d tied alternatives in %d selections", len(seen), len(want), 2*len(ties))
			}
		}
	}

	// Evaluation counts: when once per datum in range, pri once iff eligible.
	for gi := range guards {
		g := &guards[gi]
		var ids []uint64
		hasWhen, hasPri := false, false
		switch g.kind {
		case guardAccept, guardAwait:
			list, state := g.res.attached, slotAttached
			hasWhen, hasPri = g.whenAccept != nil, g.priAccept != nil
			if g.kind == guardAwait {
				list, state = g.res.ready, slotReady
				hasWhen, hasPri = g.whenAwait != nil, g.priAwait != nil
			}
			for _, p := range list {
				if g.slotIdx < 0 || g.slotIdx == p.idx {
					ids = append(ids, p.id)
				}
			}
			if g.slotIdx >= 0 && (g.res.slots[g.slotIdx].state == state) != (len(ids) == 1) {
				fail("guard %d: element %d state %v but %d index records", gi, g.slotIdx, g.res.slots[g.slotIdx].state, len(ids))
			}
		case guardCond:
			ids, hasWhen = []uint64{0}, true
		case guardReceive:
			// One alternative per channel: the frontmost matching message.
			// PeekWhere owns how many messages the condition sees; the
			// contract here is at most once each, and pri once on the match.
			for k, n := range log.when {
				if k.guard == gi && n != 1 {
					fail("guard %d: when ran %d times on message %d", gi, n, k.id)
				}
			}
			npri := 0
			for k, n := range log.pri {
				if k.guard == gi {
					npri += n
				}
			}
			_, matched := g.ch.PeekWhere(g.whenMsg)
			if want := b2i(matched && g.priMsg != nil); npri != want {
				fail("guard %d: pri ran %d times on the channel, want %d", gi, npri, want)
			}
			continue
		}
		nWhen, nPri := 0, 0
		for k := range log.when {
			if k.guard == gi {
				nWhen++
			}
		}
		for k := range log.pri {
			if k.guard == gi {
				nPri++
			}
		}
		wantPri := 0
		for _, id := range ids {
			k := evalKey{gi, id}
			if hasWhen && log.when[k] != 1 {
				fail("guard %d: when ran %d times on call %d, want 1", gi, log.when[k], id)
			}
			eligible := !hasWhen || log.held[k]
			if hasPri && eligible {
				wantPri++
			}
			if want := b2i(hasPri && eligible); log.pri[k] != want {
				fail("guard %d: pri ran %d times on call %d (eligible %v), want %d", gi, log.pri[k], id, eligible, want)
			}
		}
		if hasWhen && nWhen != len(ids) {
			fail("guard %d: when ran on %d data, %d in range", gi, nWhen, len(ids))
		}
		if nPri != wantPri {
			fail("guard %d: pri ran on %d data, %d eligible", gi, nPri, wantPri)
		}
	}
	return ok
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTieRotationThroughSelect drives the tie rule end to end: three
// always-open alternatives share the minimum pri while a fourth, also
// always eligible, sits above it. Real Selects must never choose the
// fourth and must reach each of the three within 2·3 consecutive
// selections, from any starting rotation.
func TestTieRotationThroughSelect(t *testing.T) {
	var picks []int
	done := make(chan struct{})
	yes := func() bool { return true }
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Body: func(*Invocation) error { return nil }}),
		WithManager(func(m *Mgr) {
			defer close(done)
			guards := []Guard{
				OnCond(yes, func() {}).Pri(1),
				OnCond(yes, func() {}).Pri(2),
				OnCond(yes, func() {}).Pri(1),
				OnCond(yes, func() {}).Pri(1),
			}
			for i := 0; i < 60; i++ {
				gi, err := m.Select(guards...)
				if err != nil {
					return
				}
				picks = append(picks, gi)
			}
		}, Intercept("P")),
	)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	mustClose(t, o)
	if len(picks) != 60 {
		t.Fatalf("%d selections, want 60", len(picks))
	}
	for i := 0; i+6 <= len(picks); i++ {
		seen := map[int]bool{}
		for _, gi := range picks[i : i+6] {
			if gi == 1 {
				t.Fatalf("selection %d chose the pri-2 alternative over pri-1 ones", i)
			}
			seen[gi] = true
		}
		if len(seen) != 3 {
			t.Fatalf("selections %d..%d reached only %v of the three tied alternatives", i, i+5, seen)
		}
	}
}
