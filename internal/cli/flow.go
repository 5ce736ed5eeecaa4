package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ate"
	"repro/internal/dut"
)

// Flow specs: the one shared description of a characterization workload.
//
// Every paper flow — the fig. 4 learning scheme, the fig. 5 optimization
// scheme, the Table 1 comparison, the fig. 8 shmoo overlay and the lot
// screen — is constructed here, from the one flag table, binaries. A
// binary's main (Binary) registers its flag set from the table and parses
// the command line onto it; the job service (internal/jobs) goes through
// NewFlowRun, which builds the binary's exact flag set from the same table
// and applies a FlowSpec's overrides onto it. Both paths therefore resolve
// identical identity flag maps and execute identical code, which is what
// makes a submitted job produce the same content-addressed run ID and
// bit-identical trace bytes as the equivalent CLI invocation.

// flowFunc runs a binary's flow, through Run, with the workload flags it
// was registered with, writing the flow's output to out.
type flowFunc func(c *Common, out io.Writer) error

// binaries is the flag table: for each flow binary, the function that
// registers its workload flags on a flag set and returns its flow.
var binaries = map[string]func(fs *flag.FlagSet) flowFunc{
	"characterize": registerCharacterizeFlags,
	"shmoo":        registerShmooFlags,
	"lotchar":      registerLotFlags,
}

// noCacheReader is the one binary whose flows read -no-cache: only
// characterize's flows (learn, optimize, table1) keep a measurement
// memo-cache. Every binary registers the flag, because it is part of each
// run's identity flag map, and every other binary refuses it, since there
// it would only split one run's ledger record in two.
const noCacheReader = "characterize"

// checkNoCache refuses -no-cache on a binary other than noCacheReader.
// Validate (every binary's Main) and NewFlowRun (every job) both call it.
func (c *Common) checkNoCache() error {
	if c.NoCache && c.binary != noCacheReader {
		return fmt.Errorf("-no-cache has no effect here: only %s's flows have a measurement memo-cache", noCacheReader)
	}
	return nil
}

// Binary is the main of the flow binary name (characterize, shmoo or
// lotchar): it registers the shared flags and the binary's workload flags
// on the command line, parses it and runs the flow through Main, writing
// the flow's output to stdout.
func Binary(name string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	c, run := newBinary(name, flag.CommandLine)
	flag.Parse()
	c.Main(func() error { return run(c, os.Stdout) })
}

// newBinary registers on fs the shared flags and the workload flags of the
// flow binary name, and returns their values and the binary's flow.
func newBinary(name string, fs *flag.FlagSet) (*Common, flowFunc) {
	c := Register(fs)
	c.binary = name
	return c, binaries[name](fs)
}

// FlowSpec names one workload: a flow, its seed, and the workload flag
// overrides to apply on top of the binary's defaults. It is the job
// service's POST /jobs payload core.
type FlowSpec struct {
	// Flow selects the workload: learn, optimize, table1, shmoo or lot.
	Flow string `json:"flow"`
	// Seed is the run seed (the shared -seed flag; 1 is the CLI default).
	Seed int64 `json:"seed"`
	// NoCache disables the measurement memo-cache (-no-cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Args overrides workload flags by flag name ("learn-tests": "20").
	// Only the flow's declared workload flags are accepted — scheduling and
	// output-path flags are owned by the runner, never by the spec.
	Args map[string]string `json:"args,omitempty"`
}

// FlowRun is an instantiated FlowSpec: the Common carrying the resolved
// flag set (the run's ledger identity) plus the flow body to execute.
type FlowRun struct {
	// Common holds the shared flag values; callers may adjust the
	// non-identity scheduling fields (Parallel, RunDir, …)
	// before Run without changing the run's identity.
	Common *Common

	run flowFunc
}

// Run executes the flow body, writing its human-readable output to out.
func (fr *FlowRun) Run(out io.Writer) error { return fr.run(fr.Common, out) }

// flowDef describes how one flow name maps onto a binary's flag set.
type flowDef struct {
	binary string            // the owning binary, a key of binaries
	preset map[string]string // flag values the flow name itself implies
	args   map[string]bool   // workload flags a FlowSpec may override
}

func argSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

var flowDefs = map[string]flowDef{
	"learn": {
		binary: "characterize",
		preset: map[string]string{"learn-only": "true"},
		args:   argSet("param", "corner", "learn-tests"),
	},
	"optimize": {
		binary: "characterize",
		args:   argSet("param", "corner", "learn-tests", "evolve-conditions", "minimize"),
	},
	"table1": {
		binary: "characterize",
		preset: map[string]string{"table1": "true"},
		args:   argSet("param", "corner", "learn-tests", "random-tests"),
	},
	"shmoo": {
		binary: "shmoo",
		args:   argSet("tests", "vdd-min", "vdd-max", "tdq-min", "tdq-max"),
	},
	"lot": {
		binary: "lotchar",
		args:   argSet("dies", "wafers", "guardband"),
	},
}

// FlowNames lists the known flow names, sorted.
func FlowNames() []string {
	names := make([]string, 0, len(flowDefs))
	for n := range flowDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FlowArgs lists the workload flags a flow accepts in its spec, sorted.
// Unknown flows return nil.
func FlowArgs(flow string) []string {
	def, ok := flowDefs[flow]
	if !ok {
		return nil
	}
	args := make([]string, 0, len(def.args))
	for a := range def.args {
		args = append(args, a)
	}
	sort.Strings(args)
	return args
}

// NewFlowRun instantiates a FlowSpec: it rebuilds the owning binary's full
// flag set (shared flags plus the binary's workload flags, all at their CLI
// defaults), applies the flow preset and then the spec's Args, and returns
// the runnable flow. Every error is a single pinned line, suitable for a
// 400 response.
func NewFlowRun(spec FlowSpec) (*FlowRun, error) {
	def, ok := flowDefs[spec.Flow]
	if !ok {
		return nil, fmt.Errorf("cli: unknown flow %q (want %s)", spec.Flow, strings.Join(FlowNames(), ", "))
	}
	fs := flag.NewFlagSet(def.binary, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, run := newBinary(def.binary, fs)
	if err := fs.Parse(nil); err != nil {
		return nil, fmt.Errorf("cli: resolving %s flag defaults: %v", def.binary, err)
	}
	for name, val := range def.preset {
		if err := fs.Set(name, val); err != nil {
			return nil, fmt.Errorf("cli: applying flow %q preset %s=%s: %v", spec.Flow, name, val, err)
		}
	}
	// Sorted application keeps rejection order deterministic.
	names := make([]string, 0, len(spec.Args))
	for name := range spec.Args {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !def.args[name] {
			return nil, fmt.Errorf("cli: flow %q does not accept arg %q (want %s)",
				spec.Flow, name, strings.Join(FlowArgs(spec.Flow), ", "))
		}
		if err := fs.Set(name, spec.Args[name]); err != nil {
			return nil, fmt.Errorf("cli: flow %q arg %s=%q: %v", spec.Flow, name, spec.Args[name], err)
		}
	}
	if err := fs.Set("seed", strconv.FormatInt(spec.Seed, 10)); err != nil {
		return nil, fmt.Errorf("cli: flow %q seed %d: %v", spec.Flow, spec.Seed, err)
	}
	if spec.NoCache {
		if err := fs.Set("no-cache", "true"); err != nil {
			return nil, fmt.Errorf("cli: flow %q no-cache: %v", spec.Flow, err)
		}
	}
	if err := c.checkNoCache(); err != nil {
		return nil, fmt.Errorf("cli: flow %q: %v", spec.Flow, err)
	}
	return &FlowRun{Common: c, run: run}, nil
}

// parsedFlag is a string flag whose Set resolves the name into *p with
// parse, so a name the flow would reject fails at flag parsing: with exit 2
// on the command line, with 400 at job submission. String renders the name
// as given, as flag.StringVar does, so identity flag maps do not change.
type parsedFlag[T any] struct {
	name  string
	p     *T
	parse func(string) (T, error)
}

func (f *parsedFlag[T]) String() string { return f.name }

func (f *parsedFlag[T]) Set(s string) error {
	v, err := f.parse(s)
	if err == nil {
		f.name, *f.p = s, v
	}
	return err
}

// ParsedVar defines on fs a string flag, default def, whose value parse
// resolves into p when the flag is set.
func ParsedVar[T any](fs *flag.FlagSet, p *T, name, def, usage string, parse func(string) (T, error)) {
	f := &parsedFlag[T]{p: p, parse: parse}
	if err := f.Set(def); err != nil {
		panic(err) // a bad default is a bug
	}
	fs.Var(f, name, usage)
}

// minInt is an int flag whose Set rejects a value below min, at flag
// parsing as parsedFlag does. String renders the value as flag.IntVar does.
type minInt struct{ n, min int }

func (f *minInt) String() string { return strconv.Itoa(f.n) }

func (f *minInt) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if int(n) < f.min {
		return fmt.Errorf("must be at least %d, got %d", f.min, n)
	}
	f.n = int(n)
	return nil
}

// minIntVar defines f on fs as the flag name, with the default def.
func minIntVar(fs *flag.FlagSet, f *minInt, name string, def int, usage string) {
	if err := f.Set(strconv.Itoa(def)); err != nil {
		panic(err) // a bad default is a bug
	}
	fs.Var(f, name, usage)
}

// ParseParam resolves a -param flag value: tdq, fmax or vddmin. The display
// names (T_DQ) are not flag values, so one run has one spelling.
func ParseParam(s string) (ate.Parameter, error) {
	for p := range ate.Parameter(ate.NumParameters) {
		if p.Flag() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown parameter %q (want tdq, fmax or vddmin)", s)
}

// parseCorner resolves a -corner value: tt, ff or ss.
func parseCorner(s string) (dut.Corner, error) {
	switch s {
	case "tt":
		return dut.CornerTypical, nil
	case "ff":
		return dut.CornerFast, nil
	case "ss":
		return dut.CornerSlow, nil
	default:
		return 0, fmt.Errorf("unknown corner %q (want tt, ff or ss)", s)
	}
}
