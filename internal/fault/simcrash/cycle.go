package simcrash

import (
	"fmt"
	"math/rand"
	"strings"

	"opdelta/internal/fault"
)

// crashCycle is the clean-then-crash run the parallel-apply,
// adjacent-range and version-GC scenarios share:
//
//  1. a clean pass sizes the op space and must verify complete;
//  2. the crash point is drawn from rand(seed*0x9E3779B9 + salt), the
//     op first and the before/after failpoint second, so a seed always
//     replays the same point;
//  3. the crash pass runs the workload under fault.RunToCrash;
//  4. a crash pass that finished first (worker interleavings need not
//     repeat the clean pass's op count) clears its script, so the
//     verification's own reopen and close cannot trip it, and verifies
//     as a clean pass;
//  5. otherwise the disk is rebooted and its recovery verified.
type crashCycle struct {
	name string // scenario name in error messages
	seed int64
	salt int64
	// run executes the workload on fsys; clean is true for the clean
	// pass.
	run func(fsys fault.FS, clean bool) error
	// verify reopens fsys and checks the scenario's invariants;
	// complete demands the whole run's outcome.
	verify func(fsys fault.FS, complete bool) error
}

// crashOutcome is what one crash cycle reports.
type crashOutcome struct {
	totalOps uint64 // mutating fs ops in the clean pass
	crashOp  uint64 // sampled crash point for the crash pass
	crashed  bool   // false when the crash pass finished first
}

// drive runs the cycle. A non-nil error is an invariant violation.
func (c crashCycle) drive() (crashOutcome, error) {
	var out crashOutcome
	clean := fault.NewSimFS(c.seed)
	if err := c.run(clean, true); err != nil {
		return out, fmt.Errorf("simcrash: %s clean pass: %w", c.name, err)
	}
	out.totalOps = clean.Ops()
	if out.totalOps == 0 {
		return out, fmt.Errorf("simcrash: %s clean pass performed no fs ops", c.name)
	}
	if err := c.verify(clean, true); err != nil {
		return out, fmt.Errorf("simcrash: %s clean pass: %w", c.name, err)
	}

	rng := rand.New(rand.NewSource(c.seed*0x9E3779B9 + c.salt))
	out.crashOp = 1 + uint64(rng.Int63n(int64(out.totalOps)))
	crashFS := fault.NewSimFS(c.seed)
	crashFS.SetScript(&fault.Script{
		CrashOp:     out.crashOp,
		CrashBefore: rng.Intn(2) == 0,
		TornTail:    func(path string) bool { return !strings.HasSuffix(path, ".heap") },
	})
	var workErr error
	crashed := fault.RunToCrash(func() {
		workErr = c.run(crashFS, false)
	})
	// The CrashPanic can be swallowed by a worker's cleanup path, in
	// which case the workload surfaces ErrCrashed as a plain error; the
	// filesystem's own flag is the authority.
	out.crashed = crashed || crashFS.Crashed()
	if !out.crashed {
		if workErr != nil {
			return out, fmt.Errorf("simcrash: %s crash pass failed without crashing: %w", c.name, workErr)
		}
		crashFS.SetScript(nil)
		if err := c.verify(crashFS, true); err != nil {
			return out, fmt.Errorf("simcrash: %s crash pass (completed): %w", c.name, err)
		}
		return out, nil
	}
	if err := c.verify(crashFS.Reboot(), false); err != nil {
		return out, fmt.Errorf("simcrash: %s seed %d crash@%d: %w", c.name, c.seed, out.crashOp, err)
	}
	return out, nil
}
