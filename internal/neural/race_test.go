//go:build race

package neural_test

func init() { raceEnabled = true }
