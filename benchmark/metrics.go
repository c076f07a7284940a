package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one metric and its unit. BENCHMARK.json at the root of
// the repo carries the same names with direction and regression bound;
// bench_test.go keeps the two lists in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run: what a user of the
// simulator pays per cell. Medians over the repetitions of one run.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // run start → barrier after the warm-up op
	{"op_s", "s"},              // one steady-state op
	{"alloc_mb_per_op", "MB"},  // TotalAlloc delta over the op loop / ops
	{"allocs_per_op", "count"}, // Mallocs delta over the op loop / ops
	{"live_mb", "MB"},          // HeapAlloc after a forced GC, everything constructed
}

// perLayer are the metrics of the traced run. A metric whose layer is
// idle on a workload (the codec on an uncompressed cell) reads 0 there.
var perLayer = []metricDef{
	// The virtual clock and the data check: exact, seed-independent
	// where the cell's timing is, so they cannot be gated by spread.
	{"virt_s_per_op", "s"},
	{"rel_err", "ratio"},

	{"netsim.msgs_per_op", "count"},
	{"netsim.puts_per_op", "count"},
	{"netsim.fences_per_op", "count"},
	{"netsim.bytes_inter_per_op", "B"},
	{"netsim.bytes_intra_per_op", "B"},
	{"netsim.self_frac", "ratio"},
	{"netsim.ring_msgs_per_s", "1/s"},
	{"netsim.virt_per_host", "ratio"},
	{"netsim.parallel_speedup", "ratio"},
	{"netsim.parallel_cpu_ratio", "ratio"},

	{"runtime.sched_frac", "ratio"},
	{"runtime.mem_frac", "ratio"},
	{"runtime.gc_frac", "ratio"},

	{"mpi.self_frac", "ratio"},
	{"mpi.alltoallv_us_per_msg", "us"},
	{"mpi.put_us_per_put", "us"},
	{"mpi.barrier_us", "us"},
	{"mpi.win_create_ms", "ms"},

	{"exchange.self_frac", "ratio"},
	{"exchange.transport_replay_s", "s"},
	{"exchange.virt_node_gbs", "GB/s"},
	{"exchange.linear_virt_node_gbs", "GB/s"},
	{"exchange.linear_us_per_msg", "us"},

	{"compress.self_frac", "ratio"},
	{"compress.enc_gbs", "GB/s"},
	{"compress.dec_gbs", "GB/s"},
	{"compress.replay_s", "s"},
	{"compress.achieved_ratio", "ratio"},
	{"compress.max_rel_err", "ratio"},

	{"precision.self_frac", "ratio"},
	{"precision.f16_mvals_per_s", "M/s"},

	{"fft.self_frac", "ratio"},
	{"fft.batch_gflops", "GF/s"},
	{"fft.replay_s", "s"},

	{"grid.self_frac", "ratio"},
	{"grid.pack_gbs", "GB/s"},
	{"grid.unpack_gbs", "GB/s"},
	{"grid.replay_s", "s"},
	{"grid.plan_us", "us"},
	{"grid.setup_frac", "ratio"},

	{"gpu.self_frac", "ratio"},
	{"gpu.launch_ns", "ns"},

	{"core.self_frac", "ratio"},
	{"core.backward_s", "s"},
	{"core.virt_gflops", "GF/s"},
	{"core.virt_exchange_frac", "ratio"},
	{"core.virt_fft_frac", "ratio"},
	{"core.virt_pack_frac", "ratio"},
	{"core.predict_ratio", "ratio"},
	{"core.plan_over_data", "ratio"},

	{"other.self_frac", "ratio"},

	{"tune.fft_select_ms", "ms"},
	{"recover.host_overhead_frac", "ratio"},
	{"recover.virt_overhead_frac", "ratio"},
	{"obs.recorder_overhead_frac", "ratio"},

	{"proc.cold_cell_s", "s"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.cpu_s_per_op", "s"},
	{"proc.setup_share", "ratio"},
	{"proc.residual_frac", "ratio"},
	{"proc.trace_overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run: the last line of standard
// output, one JSON object.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newReport(defs []metricDef) *report {
	r := &report{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set records a measured value under a declared name. A value JSON
// cannot carry (NaN, ±Inf) is a failed check, not a number.
func (r *report) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(1, "%s is %v", name, v)
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

// fail counts n failed ops and says why on standard error.
func (r *report) fail(n int, format string, args ...interface{}) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// print writes every metric by name with its unit, in declaration
// order, then the result line.
func (r *report) print(w io.Writer, workload string, defs []metricDef) error {
	r.Correct = r.Failed == 0
	for _, d := range defs {
		fmt.Fprintf(w, "%-16s %-32s %14.6g %s\n", workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
