// Command characterize runs the paper's computational-intelligence device
// characterization flow end to end on the simulated memory test chip:
// learning scheme (fig. 4), optimization scheme (fig. 5), and the Table 1
// comparison against the deterministic March and pure random baselines.
//
// The flow and its flags live in internal/cli so the charserved job service
// executes the identical code path — a submitted job and this binary
// produce the same run ledger ID and bit-identical trace bytes.
//
// Usage:
//
//	characterize -table1                 # reproduce Table 1
//	characterize -learn-only             # stop after the learning scheme
//	characterize -param tdq -weights w.json -db worst.json
//	characterize -param vddmin -seed 7   # characterize another parameter
package main

import "repro/internal/cli"

func main() { cli.Binary("characterize") }
