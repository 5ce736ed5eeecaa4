package jobs

import (
	"fmt"

	"repro/internal/cli"
)

// ValidateServer checks the charserved flag combinations that otherwise
// surface as late, opaque failures after the server has half-booted: an
// unbindable -listen address, a missing or unwritable -queue-dir or
// -run-dir, and a nonpositive -workers budget. Each failure is a single
// pinned line (cli.Validate style); the binary exits 2 on any of them
// before touching the queue.
func ValidateServer(listen, queueDir, runDir string, workers int) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	if queueDir == "" {
		return fmt.Errorf("-queue-dir is required (the job journal needs somewhere to live)")
	}
	if err := cli.ProbeDir(queueDir); err != nil {
		return fmt.Errorf("cannot write the job queue to -queue-dir %q: %w", queueDir, err)
	}
	if runDir == "" {
		return fmt.Errorf("-run-dir is required (finished jobs finalize into the run ledger)")
	}
	if err := cli.ProbeDir(runDir); err != nil {
		return fmt.Errorf("cannot record runs to -run-dir %q: %w", runDir, err)
	}
	if listen != "" {
		if err := cli.ProbeListen(listen); err != nil {
			return fmt.Errorf("cannot bind -listen address %q: %w", listen, err)
		}
	}
	return nil
}
