// Command charbench is the end-to-end and per-layer benchmark of the
// characterization flows. It runs five workloads — table1, shmoo, lot-cold,
// lot-warm and jobs — through the flows' public entry points, each in its
// own child process with one worker per CPU, checks every unit's output,
// and prints every metric by name with its unit.
//
//	charbench                          # all five workloads, fixed unit sets
//	charbench -workload shmoo -seconds 12 -seed 3
//	charbench -trace 1 -chrome trace.json   # per-layer split, Perfetto trace
//	charbench -repeat 5 -json out.json      # median and IQR per metric
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload run, well inside the three minutes a
// run may take.
const childTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (table1, shmoo, lot-cold, lot-warm, jobs); empty runs all five")
		seed     = flag.Int64("seed", 1, "base seed: unit i of a workload uses seed+i")
		seconds  = flag.Float64("seconds", 0, "measure for this many seconds, and at least the workload's fixed unit set; 0 runs exactly the fixed set")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times, alternating workload order, and report median and IQR")
		jsonOut  = flag.String("json", "", "also write the results as JSON to this file")
		chrome   = flag.String("chrome", "", "with -trace 1, write a Chrome trace-event file of the traced units to this file")
		update   = flag.Bool("update", false, "rewrite the pinned digests in testdata/expected.json for this seed and scale")
		scale    = flag.String("scale", "full", "workload size: full, or smoke for two tiny units per workload")
		child    = flag.String("child", "", "internal: run -workload in this process, using this scratch directory")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *scale != "full" && *scale != "smoke" {
		fatalf("-scale must be full or smoke")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		smoke: *scale == "smoke", chrome: *chrome != ""}

	if *child != "" {
		cfg.dir = *child
		res, err := runWorkload(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else if _, ok := specByName(*workload); !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *update && (cfg.trace || cfg.seconds > 0) {
		fatalf("-update pins the fixed unit sets: use it without -trace and -seconds")
	}
	if *repeat < 1 {
		fatalf("-repeat must be at least 1")
	}

	var runs []*result
	for r := 0; r < *repeat; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			c := cfg
			c.workload = name
			res, err := spawn(c)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			printRun(res)
			runs = append(runs, res)
		}
	}

	ok := true
	for _, r := range runs {
		ok = ok && r.Failed == 0
	}
	summary := summarize(runs, cfg.trace)
	if *repeat > 1 {
		printSummary(summary, cfg.trace)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cfg, *repeat, runs, summary); err != nil {
			fatalf("%v", err)
		}
	}
	if *chrome != "" {
		if err := writeChrome(*chrome, runs); err != nil {
			fatalf("%v", err)
		}
	}
	if *update {
		if err := updatePins(cfg, runs); err != nil {
			fatalf("%v", err)
		}
	}
	if len(runs) == 1 {
		line, err := resultLine(runs[0])
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "charbench: "+format+"\n", args...)
	os.Exit(1)
}

// spawn runs one workload in a child process and returns its result, with
// the child's peak RSS taken from its rusage. The jobs workload's stderr
// carries a ledger line per job, so it is shown only when the child fails.
func spawn(cfg config) (*result, error) {
	dir, err := os.MkdirTemp("", "charbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", dir, "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-scale", scaleName(cfg.smoke)}
	if cfg.chrome {
		args = append(args, "-chrome", "-")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if cfg.workload == "jobs" {
		cmd.Stderr = &stderr
	}
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stderr.Bytes())
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child killed after %v", childTimeout)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	res := &result{}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if !cfg.trace {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no rusage for the child")
		}
		res.Info["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// printRun prints one run's metrics, one per line, by name with unit.
func printRun(r *result) {
	status := "ok"
	if r.Failed > 0 {
		status = "FAILED"
	}
	fmt.Printf("%s seed %d%s: %s, %d units, %d failed; %s\n", r.Workload, r.Seed,
		map[bool]string{false: "", true: " (traced)"}[r.Trace], status, r.Attempted, r.Failed, r.Checks)
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	for _, m := range metricsFor(r.Trace) {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, r.Metrics[m.name], m.unit)
	}
	if v, ok := r.Info["ate_sim_s_per_unit"]; ok {
		fmt.Printf("  simulated ATE test time %.6g s per unit; peak RSS %.4g MB\n", v, r.Info["peak_rss_mb"])
	}
	if v, ok := r.Info["nnga_wcr_mean"]; ok {
		fmt.Printf("  quality: mean WCR March %.3f, Random %.3f, NN+GA %.3f (paper 0.619, 0.701, 0.904; no silicon reference, so a difference, not an error); March < Random < NN+GA on %.0f%% of seeds\n",
			r.Info["march_wcr_mean"], r.Info["random_wcr_mean"], v, 100*r.Info["shape_ok_frac"])
	}
}

// resultLine renders the one-line result of a single run.
func resultLine(r *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range metricsFor(r.Trace) {
		out.Metrics[m.name] = value{r.Metrics[m.name], m.unit}
	}
	return json.Marshal(out)
}

// stat is one metric of one workload across repeated runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Bound  float64   `json:"bound,omitempty"`
	Noisy  bool      `json:"noisy,omitempty"`
	Values []float64 `json:"values"`
}

// summarize gives the median and quartiles of every metric per workload;
// an end-to-end metric whose spread exceeds its bound is noisy.
func summarize(runs []*result, traced bool) map[string]map[string]stat {
	out := map[string]map[string]stat{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]stat{}
		}
		for _, m := range metricsFor(traced) {
			s := out[r.Workload][m.name]
			s.Unit, s.Bound = m.unit, m.bound
			s.Values = append(s.Values, r.Metrics[m.name])
			out[r.Workload][m.name] = s
		}
	}
	for _, byMetric := range out {
		for name, s := range byMetric {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			if s.Median != 0 {
				s.Spread = math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
			}
			s.Noisy = s.Bound > 0 && name != "setup_s" && s.Spread > s.Bound
			byMetric[name] = s
		}
	}
	return out
}

func printSummary(sum map[string]map[string]stat, traced bool) {
	fmt.Println("\nmedian [q1, q3] across repeats; spread = (q3-q1)/median")
	for _, sp := range specs {
		byMetric, ok := sum[sp.name]
		if !ok {
			continue
		}
		fmt.Println(sp.name)
		for _, m := range metricsFor(traced) {
			s := byMetric[m.name]
			flag := ""
			if s.Noisy {
				flag = "  noisy"
			}
			fmt.Printf("  %-32s %14.6g [%.6g, %.6g] %s spread %.3f%s\n", m.name, s.Median, s.Q1, s.Q3, m.unit, s.Spread, flag)
		}
	}
}

func writeJSON(path string, cfg config, repeat int, runs []*result, sum map[string]map[string]stat) error {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += " (modified)"
			}
		}
	}
	for _, r := range runs {
		r.Events, r.Digests = nil, nil
	}
	doc := map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     commit,
		},
		"seed":    cfg.seed,
		"seconds": cfg.seconds,
		"trace":   cfg.trace,
		"scale":   scaleName(cfg.smoke),
		"repeat":  repeat,
		"summary": sum,
		"runs":    runs,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeChrome merges the children's traced spans into one trace-event file,
// one process track per workload.
func writeChrome(path string, runs []*result) error {
	var evs []chromeEvent
	for i, r := range runs {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: i, Args: map[string]string{"name": r.Workload}})
		for _, e := range r.Events {
			e.Pid = i
			evs = append(evs, e)
		}
	}
	sortEvents(evs)
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// updatePins rewrites this seed's and scale's digests in
// testdata/expected.json, next to this source file.
func updatePins(cfg config, runs []*result) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	scale, seed := scaleName(cfg.smoke), strconv.FormatInt(cfg.seed, 10)
	if p[scale] == nil {
		p[scale] = map[string]map[string][]string{}
	}
	if p[scale][seed] == nil {
		p[scale][seed] = map[string][]string{}
	}
	for _, r := range runs {
		if r.Workload != "lot-warm" { // pinned through lot-cold's unit 0
			p[scale][seed][r.Workload] = r.Digests
		}
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	_, src, _, ok := runtime.Caller(0)
	if !ok {
		return errors.New("cannot locate the source directory for -update")
	}
	path := filepath.Join(filepath.Dir(src), "testdata", "expected.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %s seed %s digests in %s (rebuild to use them)\n", scale, seed, path)
	return nil
}
