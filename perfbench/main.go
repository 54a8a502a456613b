// Command perfbench is the repository benchmark. It replays a generated
// trace through the Sonata runtime in one of three fixed workloads and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 it times the replay untraced, through the entry points
// cmd/sonata uses, and reports the end-to-end metrics. With -trace 1 it
// reports per-layer metrics instead: spans around the runtime's calls, a
// layer ledger built from public layer functions (ledger.go), and the
// tracing overhead. Spans are written to <out>/spans/ when the run ends.
//
// Usage (from the repository root, after building):
//
//	perfbench -workload shipped -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Each run trains, plans and deploys at least minSetups times, and keeps
// going while the set-ups have taken less than setupBudget, so that a cheap
// set-up is sampled often enough for a steady median; setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// endToEnd and perLayer are the metrics -trace 0 and -trace 1 print, in
// BENCHMARK.json's order, with their units.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s"},
	{"sp_tuples_per_s", "1/s"},
	{"close_ms_p50", "ms"},
	{"sp_tuples_per_kframe", "count"},
	{"setup_s", "s"},
	{"state_mb", "MB"},
}

var perLayer = []metricDef{
	{"runtime.dispatch_ns_per_frame", "ns"},
	{"runtime.shard_busy_frac", "fraction"},
	{"runtime.shard_skew", "ratio"},
	{"runtime.speedup_potential", "ratio"},
	{"runtime.alloc_kb_per_window", "KB"},
	{"subscribe.publish_ms_per_window", "ms"},
	{"trace.runtime_overhead_frac", "fraction"},
	{"packet.parse_ns_per_frame", "ns"},
	{"pisa.prescreen_ns_per_frame", "ns"},
	{"pisa.walk_ns_per_frame", "ns"},
	{"pisa.recorder_tax", "ratio"},
	{"emitter.mirror_ns_per_tuple", "ns"},
	{"pisa.dump_ms_per_window", "ms"},
	{"emitter.dump_ingest_ms_per_window", "ms"},
	{"stream.eval_ms_per_window", "ms"},
	{"runtime.refine_ms_per_window", "ms"},
	{"ledger.coverage_frac", "fraction"},
	{"ledger.uncovered_ms_per_window", "ms"},
	{"ledger.overhead_frac", "fraction"},
	{"pisa.mirrors_per_frame", "count"},
	{"pisa.collision_frac", "fraction"},
	{"pisa.dump_entries_per_window", "count"},
	{"stream.tuples_in_per_window", "count"},
	{"runtime.filter_updates_per_window", "count"},
	{"emitter.malformed_frac", "fraction"},
	{"subscribe.drop_frac", "fraction"},
	{"tracez.dropped_spans", "count"},
	{"planner.train_s", "s"},
	{"planner.plan_s", "s"},
	{"runtime.deploy_s", "s"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "shipped", "workload: shipped, stream-only or close-heavy")
	seed := flag.Int64("seed", 1, "selects the replayed windows of the fixed-topology trace")
	seconds := flag.Float64("seconds", 20, "timed replay length in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory the span files are written under")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	res, err := run(w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func run(w *workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	t0 := time.Now()
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	logf("workload %s seed %d, workers %d: %d training + %d distinct windows (%d frames/cycle), generated in %.1fs",
		w.name, seed, w.workers, len(in.train), len(in.timed), in.frames, time.Since(t0).Seconds())

	var setups []setupTimes
	var d *deployment
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if d != nil {
			d.close()
		}
		if d, err = w.setup(in, traced); err != nil {
			return nil, err
		}
		setups = append(setups, d.times)
		spent += d.times.total()
		logf("setup %d: train %.3fs plan %.3fs deploy %.3fs", i+1,
			d.times.train.Seconds(), d.times.plan.Seconds(), d.times.deploy.Seconds())
	}
	defer d.close()
	warm := warmup(d.plan)
	exp, victimErr, undetected, err := reference(d.plan, in, warm)
	if err != nil {
		return nil, err
	}
	if victimErr != nil {
		logf("check failed: %v", victimErr)
	}
	for _, u := range undetected {
		logf("ground truth not reported by its own queries: %s", u)
	}

	rtSpans := newSpanLog()
	rp := replay(d, in, warm, seconds, exp, traced, rtSpans)
	e2e := summarize(rp)
	correct := victimErr == nil && e2e.failed == 0
	logf("replayed %d warm-up + %d timed windows (%d cycles); %d failed the output check",
		warm, e2e.attempted, len(rp.cycles), e2e.failed)
	logf("cycle throughput: median %.0f, quartiles %.0f-%.0f frames/s", e2e.framesPerS, e2e.fpsQ1, e2e.fpsQ3)
	if e2e.closeN >= 100 {
		logf("close_ms_p90 %.4f (n=%d untraced windows)", e2e.closeP90, e2e.closeN)
	} else {
		logf("close_ms_p90 not reported: %d untraced windows < 100", e2e.closeN)
	}

	vals := map[string]float64{}
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	defs := endToEnd
	if !traced {
		vals["frames_per_s"] = e2e.framesPerS
		vals["sp_tuples_per_s"] = e2e.tuplesPerS
		vals["close_ms_p50"] = e2e.closeP50
		vals["sp_tuples_per_kframe"] = e2e.tuplesPerKFrame
		vals["setup_s"] = med(setupTimes.total)
		vals["state_mb"] = rp.stateMB
	} else {
		defs = perLayer
		for k, v := range runtimeLayer(rp) {
			vals[k] = v
		}
		vals["planner.train_s"] = med(func(s setupTimes) time.Duration { return s.train })
		vals["planner.plan_s"] = med(func(s setupTimes) time.Duration { return s.plan })
		vals["runtime.deploy_s"] = med(func(s setupTimes) time.Duration { return s.deploy })
		vals["tracez.dropped_spans"] = float64(d.tz.Stats().Dropped)
		var delivered, dropped float64
		if d.srv != nil {
			for _, s := range d.srv.Snapshot().Subscribers {
				delivered += float64(s.Delivered)
				dropped += float64(s.Dropped)
			}
		}
		vals["subscribe.drop_frac"] = ratio(dropped, delivered+dropped)

		ledgerSpans := newSpanLog()
		lm, err := runLedger(d.plan, in, warm, ledgerSpans)
		if err != nil {
			logf("check failed: %v", err)
			correct = false
		}
		for k, v := range lm {
			vals[k] = v
		}
		if cov := vals["ledger.coverage_frac"]; err == nil && cov < 0.9 {
			logf("check failed: ledger covers %.1f%% of traced window time (< 90%%)", cov*100)
			correct = false
		}
		stem := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := rtSpans.write(stem + "-runtime.jsonl"); err != nil {
			return nil, err
		}
		if err := ledgerSpans.write(stem + "-ledger.jsonl"); err != nil {
			return nil, err
		}
		logf("spans written to %s-{runtime,ledger}.jsonl", stem)
	}

	res := &result{Correct: correct, Attempted: e2e.attempted, Failed: e2e.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // the layer does not run on this workload
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		logf("  %-36s %16.4f %s", m.name, v, m.unit)
	}
	return res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[perfbench] "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
