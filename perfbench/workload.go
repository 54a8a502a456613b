package main

import (
	"fmt"
	"io"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/flightrec"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/subscribe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// window is the query window W every workload uses (cmd/sonata's default).
const window = 3 * time.Second

// workload is one named input and deployment configuration. Names are
// fixed: later changes cite them.
type workload struct {
	name string
	// Traffic: background frames per window, host population per side, and
	// the Zipf skew of host popularity (0 keeps the generator's default).
	pkts  int
	hosts int
	zipf  float64
	// train is the number of training windows; distinct is the number of
	// different windows the timed replay cycles through.
	train    int
	distinct int
	queries  func(queries.Params) []*query.Query
	mode     planner.Mode
	workers  int
	// observe attaches what cmd/sonata always attaches: trace trees and the
	// flight recorder (the registry is attached on every workload).
	observe bool
	// subscribers in-process sample-mode subscribers drain to io.Discard.
	subscribers int
}

var workloads = []*workload{
	{
		// cmd/sonata's defaults: the headline configuration.
		name: "shipped", pkts: 100_000, hosts: 6_000,
		train: 2, distinct: 3,
		queries: queries.TopEight, mode: planner.ModeSonata,
		workers: 2, observe: true,
	},
	{
		// Table 4's stream-only baseline: every frame crosses the emitter.
		name: "stream-only", pkts: 100_000, hosts: 6_000,
		train: 2, distinct: 3,
		queries: queries.TopEight, mode: planner.ModeAllSP,
		workers: 1,
	},
	{
		// Short windows over a large, flatter host population, with all
		// eleven Table 3 queries: window close becomes a large share of
		// each window.
		name: "close-heavy", pkts: 5_000, hosts: 20_000, zipf: 1.05,
		train: 2, distinct: 20,
		queries: queries.All, mode: planner.ModeSonata,
		workers: 2, observe: true, subscribers: 2,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is the generated trace: training windows, the distinct windows the
// replay cycles through, and the generator's ground truth. The program
// under test only ever receives frames.
type inputs struct {
	train  [][][]byte
	timed  [][][]byte
	truth  []trace.GroundTruth
	frames int // frames per replay cycle
}

// topologySeed fixes the generator's host and domain populations, and the
// training windows are always the trace's first windows, so every seed
// deploys the same plan. The plan (refinement levels, gated keys, shard
// balance) follows the training traffic, and different plans change
// per-frame work by tens of percent; comparisons across seeds need one
// plan. --seed varies the traffic replayed under it: it selects which later
// windows of the fixed-topology trace are generated. The same seed always
// yields the same frames.
const topologySeed = 1

// generate builds the workload's trace from seed, before any timing.
func (w *workload) generate(seed int64) (*inputs, error) {
	n := w.train + w.distinct
	first := w.train + int(uint64(seed)%(1<<20))*w.distinct
	index := func(i int) int {
		if i < w.train {
			return i
		}
		return first + i - w.train
	}
	cfg := trace.DefaultConfig()
	cfg.Seed = topologySeed
	cfg.Window = window
	cfg.Windows = first + w.distinct
	cfg.PacketsPerWindow = w.pkts
	cfg.Hosts = w.hosts
	if w.zipf != 0 {
		cfg.ZipfS = w.zipf
	}
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	trace.StandardAttackSuite(g)
	windows := make([][][]byte, n)
	var wg sync.WaitGroup
	for p := 0; p < goruntime.NumCPU(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += goruntime.NumCPU() {
				win := g.WindowRecords(index(i))
				frames := make([][]byte, len(win.Records))
				for j, r := range win.Records {
					frames[j] = r.Data
				}
				windows[i] = frames
			}
		}(p)
	}
	wg.Wait()
	in := &inputs{truth: g.Truth(), train: windows[:w.train], timed: windows[w.train:]}
	for _, f := range in.timed {
		in.frames += len(f)
	}
	return in, nil
}

// params resolves query thresholds exactly as cmd/sonata does.
func (w *workload) params() queries.Params {
	p := eval.ScaledParams(eval.Scale{PacketsPerWindow: w.pkts})
	p.Window = window
	return p
}

// setupTimes splits set-up into the planner's two phases and deployment.
type setupTimes struct {
	train, plan, deploy time.Duration
}

func (s setupTimes) total() time.Duration { return s.train + s.plan + s.deploy }

// deployment is one trained, planned and deployed runtime, wired the way
// cmd/sonata wires it.
type deployment struct {
	rt    *runtime.Runtime
	plan  *planner.Plan
	tz    *tracez.Tracer
	srv   *subscribe.Server
	sink  *timedSink // nil unless the sink is wrapped for tracing
	times setupTimes
	// heapBefore is the live heap just before Deploy.
	heapBefore uint64
}

// setup trains, plans and deploys through the calls cmd/sonata makes. With
// wrapSink the result sink is wrapped so the traced run can time Publish.
func (w *workload) setup(in *inputs, wrapSink bool) (*deployment, error) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, time.Now())
	d := &deployment{}
	var rec *flightrec.Recorder
	if w.observe {
		d.tz = tracez.New(tracez.Options{})
		d.tz.Instrument(reg)
		rec = flightrec.New(flightrec.DefaultCapacity, nil)
		rec.Instrument(reg)
		rec.AttachTraceIndex(d.tz.Has)
	}
	var sinks subscribe.MultiSink
	if w.subscribers > 0 {
		d.srv = subscribe.NewServer()
		d.srv.Instrument(reg)
		sinks = append(sinks, d.srv)
	}

	plannerOpts := planner.DefaultOptions()
	plannerOpts.Mode = w.mode
	s := core.New(core.Config{Planner: plannerOpts, Window: window,
		Switch: pisa.DefaultConfig(), Workers: w.workers})
	for _, q := range w.queries(w.params()) {
		q.ID = 0 // renumber in registration order, as cmd/sonata does
		s.Register(q)
	}
	train := make([]planner.Frames, len(in.train))
	for i, f := range in.train {
		train[i] = planner.Frames(f)
	}
	t0 := time.Now()
	if err := s.Train(train); err != nil {
		return nil, err
	}
	t1 := time.Now()
	plan, err := s.Plan()
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	d.plan = plan
	d.heapBefore = liveHeap()

	t3 := time.Now()
	rt, err := s.Deploy()
	if err != nil {
		return nil, err
	}
	rt.Instrument(reg, d.tz)
	if rec != nil {
		rt.AttachFlightRecorder(rec)
	}
	if len(sinks) > 0 {
		if wrapSink {
			d.sink = &timedSink{inner: sinks}
			rt.SetResultSink(d.sink)
		} else {
			rt.SetResultSink(sinks)
		}
		for i := 0; i < w.subscribers; i++ {
			if _, err := d.srv.Attach(io.Discard, subscribe.SubscribeRequest{Mode: subscribe.Sample}); err != nil {
				rt.Close()
				d.srv.Close()
				return nil, err
			}
		}
	}
	t4 := time.Now()
	d.rt = rt
	d.times = setupTimes{train: t1.Sub(t0), plan: t2.Sub(t1), deploy: t4.Sub(t3)}
	return d, nil
}

// close stops the runtime's workers and the subscription writers.
func (d *deployment) close() {
	d.rt.Close()
	if d.srv != nil {
		d.srv.Close()
	}
}

// liveHeap is the live heap after a forced collection. Two cycles empty the
// sync.Pool victim caches, so pooled buffers do not count as state.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedSink wraps the deployment's result sink to time Publish. It forwards
// the optional attach interfaces so the runtime wires probes and span lanes
// exactly as it would into the bare sink.
type timedSink struct {
	inner      subscribe.MultiSink
	start, end time.Time
}

func (s *timedSink) Publish(rep *runtime.WindowReport) {
	s.start = time.Now()
	s.inner.Publish(rep)
	s.end = time.Now()
}

func (s *timedSink) AttachFlightRec(lookup func(qid uint16, level uint8) *flightrec.Probe) {
	s.inner.AttachFlightRec(lookup)
}

func (s *timedSink) AttachTracez(r *tracez.Ring) { s.inner.AttachTracez(r) }
