package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// Run-ledger finalization: on a clean finish with -run-dir set, the
// run's deterministic artifacts (manifest, report, metrics, trace) become a
// content-addressed runstore record, and everything scheduling- or
// wall-clock-dependent lands in the record's attempt sidecar. The manifest
// hashes only identity-bearing flags, so re-running the same workload at a
// different -parallel (or with different -trace or -metrics paths) appends
// an attempt to the same record instead of minting a new one.

// nonIdentityFlags are the shared flags that change how the run executes or
// where its outputs go — never what is computed — and are therefore excluded
// from the manifest's identity flag set. Everything else the binary defines
// (workload flags like -param, -corner, -learn-tests, and shared semantic
// flags like -seed and -no-cache) is identity.
var nonIdentityFlags = map[string]bool{
	"parallel":      true,
	"trace":         true,
	"metrics":       true,
	"report":        true,
	"listen":        true,
	"crash-dir":     true,
	"stall-timeout": true,
	"inject-fault":  true,
	"cpuprofile":    true,
	"memprofile":    true,
	"run-dir":       true,
	"cache-dir":     true, // the warmth tier, not the path, is identity
}

// identityFlags returns the resolved values of every identity-bearing flag.
// Empty when the Common was built without Register (tests).
func (c *Common) identityFlags() map[string]string {
	return c.flagMap(func(name string) bool { return !nonIdentityFlags[name] })
}

// allFlags returns every resolved flag value, for the attempt sidecar and
// the crash bundle.
func (c *Common) allFlags() map[string]string {
	return c.flagMap(func(string) bool { return true })
}

func (c *Common) flagMap(keep func(name string) bool) map[string]string {
	out := make(map[string]string)
	if c.fs == nil {
		return out
	}
	c.fs.VisitAll(func(f *flag.Flag) {
		if keep(f.Name) {
			out[f.Name] = f.Value.String()
		}
	})
	return out
}

// cacheWarmth classifies the persistent-cache reuse tier the run saw: none
// when it opened no store, as in a flow that ignores -cache-dir.
func (c *Common) cacheWarmth(rep *telemetry.Report) string {
	switch {
	case !c.storeOpened:
		return "none"
	case rep.DiskCache.LoadedEntries > 0:
		return "warm"
	default:
		return "cold"
	}
}

// runInfoLabels builds the /metrics repro_run_info label closure. Called per
// scrape so the run_fingerprint label tracks the live trace digest.
func (c *Common) runInfoLabels(tel *telemetry.Telemetry) func() map[string]string {
	return func() map[string]string {
		return map[string]string{
			"flow":            c.runName,
			"seed":            strconv.FormatInt(c.Seed, 10),
			"run_fingerprint": tel.Fingerprint(),
		}
	}
}

// finalizeRun builds and stores the run's ledger record plus its attempt
// sidecar line. No-op without -run-dir. The record's trace is the bytes the
// tracer wrote, which it kept in memory for the ledger.
func (c *Common) finalizeRun(rep *telemetry.Report) error {
	if c.ledger == nil {
		return nil
	}
	man := runstore.Manifest{
		Version:     runstore.FormatVersion,
		Flow:        c.runName,
		Seed:        c.Seed,
		Flags:       c.identityFlags(),
		CacheWarmth: c.cacheWarmth(rep),
		TraceDigest: rep.Fingerprint,
	}
	var reportBuf, metricsBuf bytes.Buffer
	if err := rep.WriteDeterministicJSON(&reportBuf); err != nil {
		return err
	}
	stripped := rep.Metrics.StripNonDeterministic()
	if err := stripped.WriteJSON(&metricsBuf); err != nil {
		return err
	}
	rec := &runstore.Record{
		Manifest: man,
		Report:   reportBuf.Bytes(),
		Metrics:  metricsBuf.Bytes(),
		Trace:    c.ledgerTrace.Bytes(),
	}
	id, created, err := c.ledger.Put(rec)
	if err != nil {
		return err
	}
	c.lastRunID = id
	if err := c.ledger.AppendAttempt(id, c.buildAttempt(rep)); err != nil {
		return err
	}
	if !c.Embedded {
		status := "existing"
		if created {
			status = "new"
		}
		fmt.Fprintf(os.Stderr, "run ledger: recorded %s (%s) in %s\n", id, status, c.ledger.Dir())
	}
	return nil
}

// buildAttempt collects the ND side of this execution for the sidecar.
func (c *Common) buildAttempt(rep *telemetry.Report) runstore.Attempt {
	a := runstore.Attempt{
		TimeUnixNano: time.Now().UnixNano(),
		WallSeconds:  rep.NonDeterministic.WallSeconds,
		Parallelism:  c.Parallel,
		Flags:        c.allFlags(),
		PoolRuns:     rep.NonDeterministic.Pool.Runs,
		PoolTasks:    rep.NonDeterministic.Pool.Tasks,
		MaxWorkers:   rep.NonDeterministic.Pool.MaxWorkers,
		// The run's utilization, over every stage.
		FleetUtilization: rep.Metrics.Gauges[telemetry.FleetUtilization],
	}
	if c.progress != nil && a.WallSeconds > 0 {
		if item, ok := c.progress.Current().Items["die"]; ok && item.Done > 0 {
			a.DiesPerSecond = float64(item.Done) / a.WallSeconds
		}
	}
	if c.flight != nil {
		if raw, err := json.Marshal(map[string]any{"non_deterministic": c.flight.Snapshot(32)}); err == nil {
			a.Flight = raw
		}
	}
	return a
}
