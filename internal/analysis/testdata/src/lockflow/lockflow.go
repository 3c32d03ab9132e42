// Package lockflow is an analyzer fixture with known violations; the
// `// want <rule>` markers are asserted by internal/analysis tests. A mutex
// acquired directly (the lockbalance fixture) or through a helper (any depth)
// must be released on every path out of the function — directly, through a
// releasing helper, or via defer of either.
package lockflow

import "sync"

type store struct {
	mu sync.Mutex
	n  int
}

// lockIt hides the acquisition behind a call boundary. It is itself a
// direct hold (a deliberate lock helper carries a reasoned ignore in real
// code).
func (s *store) lockIt() { s.mu.Lock() } // want lockflow

// unlockIt hides the release.
func (s *store) unlockIt() { s.mu.Unlock() }

// bad acquires through the helper and returns without any release.
func bad(s *store) {
	s.lockIt() // want lockflow
	s.n++
}

// good releases through the deferred helper.
func good(s *store) {
	s.lockIt()
	defer s.unlockIt()
	s.n++
}

// alsoGood releases directly: the helper-acquired key unifies with the
// direct unlock's expression key.
func alsoGood(s *store) {
	s.lockIt()
	s.n++
	s.mu.Unlock()
}

// deferredLiteral releases inside a deferred literal.
func deferredLiteral(s *store) {
	s.lockIt()
	defer func() {
		s.unlockIt()
	}()
	s.n++
}

// leaky releases on only one path: the early return leaks the hold.
func leaky(s *store, cond bool) int {
	s.lockIt() // want lockflow
	if cond {
		return 0
	}
	s.mu.Unlock()
	return s.n
}

// lockDeep proves transitivity: it is itself a call-derived hold (reported
// — a deliberate lock-helper carries a reasoned ignore in real code) and
// its summary propagates the acquisition one level further up.
func (s *store) lockDeep() { s.lockIt() } // want lockflow

func deepBad(s *store) {
	s.lockDeep() // want lockflow
	s.n++
}

// suppressed proves the ignore directive covers lockflow findings.
func suppressed(s *store) {
	//mctlint:ignore lockflow fixture: suppression must cover program-scoped rules
	s.lockIt()
	s.n++
}

// relock leaks s.mu through the helper and then locks it again directly:
// one leaked lock is one finding, at the earlier acquisition.
func relock(s *store) {
	s.lockIt() // want lockflow
	s.mu.Lock()
	s.n++
}
