package main

import (
	"math"
	"sort"
)

// metric is one reported number: its name, unit and direction. Bound is
// the end-to-end regression bound, the share of the parent's median by which
// the metric may worsen; BENCHMARK.json records the same values and the
// smoke test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the flows sees. Every workload reports
// all of them and none is ever zero: failures are the result's failed count,
// not a metric, and the ATE cost of a job is read back from its ledger
// record. Simulated ATE test time is reported beside them, not as a metric:
// on the lot workloads it is the same for every seed. So is the peak RSS:
// a GC cycle slowed by a host stall lifts it by half on one run in three,
// while the median RSS at unit ends stays within 2 %.
//
// Host times and RSS get a 24 % bound, just under set-up's 25 %: on a
// shared two-vCPU host every workload speeds up and slows down together, by
// up to 45 % over a few minutes, so the interquartile range of ten runs is
// 3–28 % of the median and longer runs do not narrow it. The ATE count is
// exact for a seed and varies across seeds by up to 2 %.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"unit_p50_ms", "ms", "lower", 0.24},
	{"unit_tail_ms", "ms", "lower", 0.24},
	{"units_per_s", "1/s", "higher", 0.24},
	{"cpu_ms_per_unit", "ms", "lower", 0.24},
	{"rss_p50_mb", "MB", "lower", 0.24},
	{"ate_meas_per_unit", "count", "lower", 0.06},
}

// perLayer are the traced run's metrics. Layer times are shares of the
// traced unit wall time (ratio), so a layer a workload never enters reads 0
// rather than a fake time; the only absolute times are ones every workload
// produces.
var perLayer = []metric{
	{"dut.exec_ratio", "ratio", "lower", 0},
	{"dut.profiles_per_unit", "count", "lower", 0},
	{"dut.diesource_ratio", "ratio", "lower", 0},
	{"search.serial_ratio", "ratio", "lower", 0},
	{"search.meas_per_search", "count", "lower", 0},
	{"search.saved_ratio", "ratio", "higher", 0},
	{"neural.train_ratio", "ratio", "lower", 0},
	{"neural.vote_ratio", "ratio", "lower", 0},
	{"testgen.gen_ratio", "ratio", "lower", 0},
	{"genetic.serial_ratio", "ratio", "lower", 0},
	{"genetic.generations_per_unit", "count", "lower", 0},
	{"memo.hit_ratio", "ratio", "higher", 0},
	{"memo.lookups_per_unit", "count", "lower", 0},
	{"fleet.task_ratio", "ratio", "lower", 0},
	{"fleet.overhead_ratio", "ratio", "lower", 0},
	{"fleet.stages_per_unit", "count", "lower", 0},
	{"fleet.tasks_per_unit", "count", "lower", 0},
	{"fleet.idle_ratio", "ratio", "lower", 0},
	{"fleet.deliver_exposed_ratio", "ratio", "lower", 0},
	{"fleet.run_ahead_max", "count", "higher", 0},
	{"lot.serial_ratio", "ratio", "lower", 0},
	{"cachestore.open_ratio", "ratio", "lower", 0},
	{"cachestore.hit_ratio", "ratio", "higher", 0},
	{"cachestore.mb_on_disk", "MB", "lower", 0},
	{"jobs.submit_ratio", "ratio", "lower", 0},
	{"jobs.queue_wait_ratio", "ratio", "lower", 0},
	{"jobs.run_ratio", "ratio", "lower", 0},
	{"jobs.overhead_ratio", "ratio", "lower", 0},
	{"telemetry.ledger_overhead_ratio", "ratio", "lower", 0},
	{"gc.cpu_ratio", "ratio", "lower", 0},
	{"gc.alloc_mb_per_unit", "MB", "lower", 0},
	{"gc.allocs_per_unit", "count", "lower", 0},
	{"sched.latency_p99_us", "us", "lower", 0},
	{"trace.unit_ms", "ms", "lower", 0},
	{"trace.explained_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// metricsFor returns the metric set a run reports.
func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles with the default "exclusive" method.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), percentile(s, 50), at(3)
}
