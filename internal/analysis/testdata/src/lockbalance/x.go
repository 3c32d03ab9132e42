// Package lockbalance is a lockflow fixture for direct acquisitions: a
// Lock/RLock in the function's own body must be released on every path to
// return/panic. The `// want <rule>` markers are asserted by
// internal/analysis tests.
package lockbalance

import (
	"errors"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func leakOnErrorReturn(c *counter, fail bool) error {
	c.mu.Lock() // want lockflow
	if fail {
		return errors.New("boom") // this path skips the unlock
	}
	c.n++
	c.mu.Unlock()
	return nil
}

func leakOnPanicPath(c *counter, bad bool) {
	c.mu.Lock() // want lockflow
	if bad {
		panic("invariant violated") // deferless panic exits locked
	}
	c.n++
	c.mu.Unlock()
}

func rlockLeak(mu *sync.RWMutex, skip bool) {
	mu.RLock() // want lockflow
	if skip {
		return
	}
	mu.RUnlock()
}

// balancedBranches unlocks on every path explicitly: clean.
func balancedBranches(c *counter, fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errors.New("boom")
	}
	c.n++
	c.mu.Unlock()
	return nil
}

// deferredUnlock covers every later exit, including panics: clean.
func deferredUnlock(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n > 1<<30 {
		panic("overflow") // the deferred unlock still runs
	}
}

// deferredLiteralUnlock releases through a deferred closure: clean.
func deferredLiteralUnlock(c *counter) {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
}

// readSide pairs RLock with a deferred RUnlock: clean.
func readSide(mu *sync.RWMutex) int {
	mu.RLock()
	defer mu.RUnlock()
	return 1
}

// closureLeak leaks inside a function literal, which is its own function:
// the finding is at the literal's Lock.
func closureLeak(c *counter) func(bool) {
	return func(fail bool) {
		c.mu.Lock() // want lockflow
		if fail {
			return
		}
		c.mu.Unlock()
	}
}

// lockInLoop is balanced within each iteration: clean.
func lockInLoop(c *counter, n int) {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func suppressedHandoff(c *counter) {
	c.mu.Lock() //mctlint:ignore lockflow fixture: lock handoff — the caller releases
	c.n++
}
