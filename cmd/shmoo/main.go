// Command shmoo regenerates the fig. 8 overlay shmoo plot: many random
// tests swept over supply voltage (Y) and the T_DQ strobe (X) in a single
// plot, so the test-dependent trip point variation shows up as a partial
// pass band between the all-pass and any-pass boundaries.
//
// The flow and its flags live in internal/cli so the charserved job
// service executes the identical code path.
//
// Usage:
//
//	shmoo -tests 1000                 # the paper's 1000-test overlay
//	shmoo -tests 100 -db worst.json   # overlay a saved worst-case database
package main

import "repro/internal/cli"

func main() { cli.Binary("shmoo") }
