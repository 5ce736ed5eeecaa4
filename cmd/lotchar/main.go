// Command lotchar completes the characterization methodology of §1: it
// takes the worst-case tests found by the CI flow (plus a March baseline),
// screens them across a statistically significant sample of dies, and
// extracts the final device specification over the environmental grid —
// "every combination of two or more environmental variables".
//
// The flow and its flags live in internal/cli so the charserved job
// service executes the identical code path.
//
// Usage:
//
//	lotchar -db worst.json -dies 25
//	lotchar -dies 10 -guardband 0.08        # built-in worst-case pattern
//	lotchar -wafers 4 -dies 2500 -cache-dir /tmp/lotcache   # fab-scale, persisted
package main

import "repro/internal/cli"

func main() { cli.Binary("lotchar") }
