// Package admit implements byte-budget admission control for the
// serving layer.
//
// A Controller tracks the request bytes currently in flight, globally
// and per source (typically the client IP). Acquire charges a request
// against both budgets and returns a Grant the caller releases when
// the request finishes. When a budget is exhausted the request either
// sheds immediately or — when MaxWait is set — parks in a FIFO queue
// and sheds only if capacity does not free up in time. Every shed
// carries a Retry-After hint and unwraps to ErrOverloaded so transport
// layers can map it to 429.
//
// Admission is work-conserving: a new request that fits is admitted
// even while larger requests wait, so small requests are never blocked
// behind a big one. The trade is that a large waiter can in principle
// be overtaken repeatedly; MaxWait bounds that — it sheds with a
// Retry-After instead of waiting forever, which is the correct
// overload answer anyway.
//
// A request larger than a budget on an otherwise idle budget is
// admitted (oversized-alone rule): budgets bound concurrency, they do
// not reject work outright — a single huge restore must still be
// possible on an idle server.
package admit

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the sentinel all shed errors unwrap to.
var ErrOverloaded = errors.New("admit: overloaded")

// ShedError reports a shed admission attempt: which budget was
// exhausted and how long the client should back off.
type ShedError struct {
	Scope      string // "global" or "source"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: overloaded (%s byte budget exhausted, retry after %v)", e.Scope, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrOverloaded }

// Options configures a Controller. A zero budget disables that budget.
type Options struct {
	// GlobalBytes caps the total in-flight request bytes across all
	// sources.
	GlobalBytes int64
	// SourceBytes caps the in-flight request bytes per source.
	SourceBytes int64
	// MaxWait bounds how long an over-budget request waits for capacity
	// before shedding. Zero sheds immediately.
	MaxWait time.Duration
	// RetryAfter is the backoff hint attached to sheds (default 1s).
	RetryAfter time.Duration
}

// Stats is a point-in-time snapshot of a Controller.
type Stats struct {
	Admitted int64 // grants issued
	Shed     int64 // acquisitions rejected
	Waits    int64 // acquisitions that had to queue (admitted or shed)
	InFlight int64 // bytes currently admitted
	Peak     int64 // high-water mark of InFlight
	Waiting  int   // requests currently queued
}

type waiter struct {
	source  string
	bytes   int64
	ready   chan struct{}
	granted bool
}

// Controller is safe for concurrent use.
type Controller struct {
	opts Options

	mu       sync.Mutex
	inflight int64
	peak     int64
	bySource map[string]int64
	queue    []*waiter
	admitted int64
	shed     int64
	waits    int64
}

// New returns a Controller for opts.
func New(opts Options) *Controller {
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	return &Controller{opts: opts, bySource: make(map[string]int64)}
}

// RetryAfter reports the configured backoff hint.
func (c *Controller) RetryAfter() time.Duration { return c.opts.RetryAfter }

// Grant is an admitted request's hold on the budgets. Release is
// idempotent and must be called when the request finishes.
type Grant struct {
	c      *Controller
	source string
	bytes  int64
	once   sync.Once
}

// Release returns the grant's bytes to the budgets and wakes any
// waiters that now fit. Safe to call on a nil grant.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.once.Do(func() { g.c.release(g.source, g.bytes) })
}

// Bytes reports the charge this grant holds.
func (g *Grant) Bytes() int64 { return g.bytes }

// fitsLocked reports whether charging source with n keeps both budgets.
// A budget only rejects when it already has bytes in flight, so an
// oversized request on an idle budget is admitted rather than being
// impossible forever.
func (c *Controller) fitsLocked(source string, n int64) bool {
	if b := c.opts.GlobalBytes; b > 0 && c.inflight > 0 && c.inflight+n > b {
		return false
	}
	if b := c.opts.SourceBytes; b > 0 {
		if used := c.bySource[source]; used > 0 && used+n > b {
			return false
		}
	}
	return true
}

func (c *Controller) admitLocked(source string, n int64) {
	c.inflight += n
	if c.inflight > c.peak {
		c.peak = c.inflight
	}
	if c.opts.SourceBytes > 0 {
		c.bySource[source] += n
	}
	c.admitted++
}

// Acquire charges bytes against the budgets on behalf of source. It
// returns a Grant on admission, or a *ShedError (unwrapping to
// ErrOverloaded) when the request must be shed. Charges below one byte
// are rounded up so every request holds a nonzero stake.
func (c *Controller) Acquire(source string, bytes int64) (*Grant, error) {
	if bytes < 1 {
		bytes = 1
	}
	c.mu.Lock()
	if c.fitsLocked(source, bytes) {
		c.admitLocked(source, bytes)
		c.mu.Unlock()
		return &Grant{c: c, source: source, bytes: bytes}, nil
	}
	if c.opts.MaxWait <= 0 {
		return nil, c.shedLocked(source, bytes)
	}
	w := &waiter{source: source, bytes: bytes, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.waits++
	c.mu.Unlock()

	t := time.NewTimer(c.opts.MaxWait)
	defer t.Stop()
	select {
	case <-w.ready:
		return &Grant{c: c, source: source, bytes: bytes}, nil
	case <-t.C:
	}

	c.mu.Lock()
	if w.granted {
		// The grant raced the timeout; keep it.
		c.mu.Unlock()
		return &Grant{c: c, source: source, bytes: bytes}, nil
	}
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	return nil, c.shedLocked(source, bytes)
}

// shedLocked records a shed and builds its error; it unlocks c.mu.
func (c *Controller) shedLocked(source string, bytes int64) error {
	c.shed++
	scope := "source"
	if b := c.opts.GlobalBytes; b > 0 && c.inflight > 0 && c.inflight+bytes > b {
		scope = "global"
	}
	retry := c.opts.RetryAfter
	c.mu.Unlock()
	return &ShedError{Scope: scope, RetryAfter: retry}
}

// release returns n bytes and admits every queued waiter that now
// fits, in FIFO order.
func (c *Controller) release(source string, n int64) {
	c.mu.Lock()
	c.inflight -= n
	if c.opts.SourceBytes > 0 {
		if u := c.bySource[source] - n; u > 0 {
			c.bySource[source] = u
		} else {
			delete(c.bySource, source)
		}
	}
	var wake []*waiter
	kept := c.queue[:0]
	for _, w := range c.queue {
		if c.fitsLocked(w.source, w.bytes) {
			c.admitLocked(w.source, w.bytes)
			w.granted = true
			wake = append(wake, w)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = kept
	c.mu.Unlock()
	for _, w := range wake {
		close(w.ready)
	}
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Admitted: c.admitted,
		Shed:     c.shed,
		Waits:    c.waits,
		InFlight: c.inflight,
		Peak:     c.peak,
		Waiting:  len(c.queue),
	}
}
