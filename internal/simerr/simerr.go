// Package simerr defines the simulator's failure taxonomy: the sentinel
// errors every subsystem wraps so that campaign-level code can classify a
// failure with errors.Is instead of string matching. The taxonomy is the
// contract the fault-injection harness (internal/faultinject) verifies:
// every injected fault must surface as exactly one of these sentinels.
//
// Classification:
//
//	ErrInvalidConfig — a configuration was structurally impossible
//	                   (rejected before any simulation starts).
//	ErrDeadlock      — the cycle-level watchdog saw no commit for the
//	                   configured budget (pipeline.DeadlockError carries
//	                   the occupancy dump).
//	ErrTimeout       — a per-simulation context deadline expired.
//	ErrInvariant     — an opt-in structural invariant check failed
//	                   (issue queue, ROB, LSQ, or PUBS table state).
//	ErrPanic         — a worker panicked; the campaign recovered it and
//	                   failed only that run.
//	ErrCircuitOpen   — the service's circuit breaker tripped after
//	                   consecutive simulator panics; detailed simulation
//	                   is refused while cached results still serve.
//	ErrOverload      — admission control shed the work: the job was
//	                   evicted from a full queue (or refused above the
//	                   high-water mark) to protect accepted work.
//
// Transient wraps an error to mark it retryable; the experiment runner
// retries transient failures with exponential backoff and treats every
// other failure as deterministic (retrying would reproduce it).
package simerr

import (
	"errors"
	"fmt"
)

// Sentinel errors. Wrap them with fmt.Errorf("%w: ...", ...) and test with
// errors.Is.
var (
	// ErrInvalidConfig marks a structurally invalid configuration.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrDeadlock marks a simulation whose commit stage made no progress
	// for the watchdog budget.
	ErrDeadlock = errors.New("simulator deadlock")
	// ErrTimeout marks a simulation cut off by its context deadline.
	ErrTimeout = errors.New("simulation timeout")
	// ErrInvariant marks a failed structural invariant check.
	ErrInvariant = errors.New("invariant violation")
	// ErrPanic marks a recovered worker panic.
	ErrPanic = errors.New("worker panic")
	// ErrCircuitOpen marks a simulation refused because the service's
	// circuit breaker is open (degraded, cached-only mode).
	ErrCircuitOpen = errors.New("circuit breaker open")
	// ErrOverload marks work shed by admission control to protect the
	// work already accepted.
	ErrOverload = errors.New("shed under overload")
)

// transientError marks its wrapped error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err as retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether any error in err's chain was marked
// retryable with Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// PanicError is the typed error a recovered worker panic becomes. It wraps
// ErrPanic and preserves the panic value and the worker's stack trace.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

// Error renders the panic value; the stack is available via the field.
func (p *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", p.Value) }

// Unwrap classifies the panic under ErrPanic.
func (p *PanicError) Unwrap() error { return ErrPanic }
