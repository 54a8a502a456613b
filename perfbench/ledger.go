package main

// The layer ledger. This file is the only one that calls layer APIs below
// the runtime (switch entry points, the prescreen, the emitter and the
// stream engine): it rebuilds the runtime's single-goroutine (Workers=1)
// pipeline from public functions, in the order the runtime calls them, and
// times each call. Its per-window reports must equal a real Workers=1
// runtime's on the same windows, so the ledger cannot drift from the
// pipeline it claims to measure. A change to the layer APIs changes this
// file and no end-to-end number.

import (
	"fmt"
	"time"

	"repro/internal/emitter"
	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// refLink is one refinement edge: level from's results gate level to.
type refLink struct {
	qid      uint16
	from, to uint8
	keyCol   int
	field    fields.ID
	table    string
	keys     []string
}

// ledger is the instrumented pipeline.
type ledger struct {
	spans  *spanLog
	sw     *pisa.Switch
	pre    *pisa.Prescreen
	masks  pisa.PrescreenMasks
	engine *stream.Engine
	dyn    *stream.DynTables
	em     *emitter.Emitter
	parser *packet.Parser
	views  []pisa.View
	links  []refLink
	// Mirror-callback accounting for the walk in progress: every call is
	// counted, every mirrorSample-th is timed.
	mirrorBusy    time.Duration
	mirrorCalls   int64
	mirrorSampled int64
	clock         time.Duration // subtracted from each timed call
	// Twin switches measure the recorder tax: the same program, fed the same
	// batches and refinement updates, with mirrors discarded; twinFR has
	// flight-recorder probes attached, twinPlain does not.
	twinPlain, twinFR *pisa.Switch
	twinPre           *pisa.Prescreen
	twinMasks         pisa.PrescreenMasks
	twinParser        *packet.Parser
	twinViews         []pisa.View
	twinNS            [2]time.Duration // plain, probed walk time in measured windows
}

func newLedger(plan *planner.Plan, spans *spanLog) (*ledger, error) {
	cfg := pisa.DefaultConfig()
	l := &ledger{spans: spans,
		parser: packet.NewParser(packet.ParserOptions{}), pre: pisa.NewPrescreen(),
		views:      make([]pisa.View, runtime.DefaultBatchSize),
		twinParser: packet.NewParser(packet.ParserOptions{}), twinPre: pisa.NewPrescreen(),
		twinViews: make([]pisa.View, runtime.DefaultBatchSize), clock: clockCost()}
	l.dyn = stream.NewDynTables()
	l.engine = stream.NewEngine(l.dyn)
	l.em = emitter.New(l.engine)
	var err error
	if l.sw, err = pisa.NewSwitchShared(cfg, plan.Program, l.mirror, l.pre); err != nil {
		return nil, err
	}
	discard := func(pisa.Mirror) {}
	if l.twinPlain, err = pisa.NewSwitchShared(cfg, plan.Program, discard, l.twinPre); err != nil {
		return nil, err
	}
	if l.twinFR, err = pisa.NewSwitchShared(cfg, plan.Program, discard, l.twinPre); err != nil {
		return nil, err
	}
	rec := flightrec.New(flightrec.DefaultCapacity, nil)
	probes := make(map[stream.QueryKey]*flightrec.Probe)
	for _, qp := range plan.Queries {
		for li, lp := range qp.Levels {
			part := stream.Partition{LeftStart: lp.Left.Pipe.EntryFor(lp.Left.Cut).StartOp}
			if lp.Right != nil {
				part.RightStart = lp.Right.Pipe.EntryFor(lp.Right.Cut).StartOp
			}
			level := uint8(lp.Level)
			if err := l.engine.Install(lp.Aug, level, part); err != nil {
				return nil, err
			}
			// Probes need only the stage layout the switch indexes into.
			tc := flightrec.TrackConfig{QID: qp.Query.ID, Level: level,
				NumLeft: len(lp.Aug.Left.Ops), RefFrom: -1}
			stages := len(lp.Aug.Left.Ops)
			if lp.Aug.HasJoin() {
				tc.NumRight = len(lp.Aug.Right.Ops)
				stages += len(lp.Aug.Right.Ops) + len(lp.Aug.Post.Ops)
			}
			tc.Stages = make([]flightrec.StageInfo, stages)
			probes[stream.QueryKey{QID: qp.Query.ID, Level: level}] = rec.Track(tc)
			if li == len(qp.Levels)-1 {
				continue
			}
			next := qp.Levels[li+1]
			keyCol := lp.Aug.FinalSchema().Index(qp.Key.Field)
			if keyCol < 0 {
				return nil, fmt.Errorf("ledger: q%d level %d: refinement key missing", qp.Query.ID, lp.Level)
			}
			l.links = append(l.links, refLink{qid: qp.Query.ID, from: level,
				to: uint8(next.Level), keyCol: keyCol, field: qp.Key.Field,
				table: planner.DynTableName(qp.Query.ID, next.Level)})
		}
	}
	l.twinFR.AttachFlightRec(func(qid uint16, level uint8) *flightrec.Probe {
		return probes[stream.QueryKey{QID: qid, Level: level}]
	})
	return l, nil
}

// mirrorSample is the mirror-callback timing stride. Timing every call
// would cost two clock reads per mirrored tuple, which on the all-sp plan
// (11 mirrors per frame) is a large share of the work being measured.
const mirrorSample = 8

// mirror is the switch's mirror callback: the emitter codec plus stream
// ingest. One call in mirrorSample is timed; the walk's mirror span carries
// the sampled time scaled to all calls.
func (l *ledger) mirror(m pisa.Mirror) {
	l.mirrorCalls++
	if l.mirrorCalls%mirrorSample != 1 {
		l.em.HandleMirror(m)
		return
	}
	t := time.Now()
	l.em.HandleMirror(m)
	if d := time.Since(t) - l.clock; d > 0 {
		l.mirrorBusy += d
	}
	l.mirrorSampled++
}

// clockCost is the smallest interval an empty time.Now/time.Since pair
// measures: the clock's own share of every timed mirror call.
func clockCost() time.Duration {
	best := time.Hour
	for i := 0; i < 1000; i++ {
		t := time.Now()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// ledgerReport is the part of a runtime WindowReport the ledger reproduces.
type ledgerReport struct {
	digest        uint64
	tuples        uint64
	stats         pisa.WindowStats
	filterUpdates int
	emFrames      uint64
	emMalformed   uint64
}

func fromRuntime(rep *runtime.WindowReport) ledgerReport {
	return ledgerReport{digest: digest(rep.AllResults), tuples: rep.TuplesToSP,
		stats: rep.Switch, filterUpdates: rep.FilterUpdates,
		emFrames: rep.EmitterFrames, emMalformed: rep.EmitterMalformed}
}

// window runs one window through the instrumented pipeline, recording a
// span per layer call under a window root.
func (l *ledger) window(pos int, frames [][]byte) ledgerReport {
	s := l.spans
	rootStart := s.now()
	root := s.add(span{Name: "ledger.window", Window: pos, Start: rootStart, End: rootStart})
	for off := 0; off < len(frames); off += len(l.views) {
		vs := l.views[:min(len(l.views), len(frames)-off)]
		t := s.now()
		for i := range vs {
			vs[i].Prepare(l.parser, frames[off+i])
		}
		t1 := s.now()
		s.add(span{Name: "packet.parse", Parent: root, Window: pos, Start: t, End: t1})
		if l.pre.Active() {
			l.pre.Eval(vs, &l.masks)
			t2 := s.now()
			s.add(span{Name: "pisa.prescreen", Parent: root, Window: pos, Start: t1, End: t2})
			t1 = t2
		}
		l.mirrorBusy, l.mirrorCalls, l.mirrorSampled = 0, 0, 0
		l.sw.ProcessViewsPre(vs, &l.masks)
		t2 := s.now()
		walk := s.add(span{Name: "pisa.walk", Parent: root, Window: pos, Start: t1, End: t2})
		if l.mirrorCalls > 0 {
			busy := l.mirrorBusy.Nanoseconds() * l.mirrorCalls / l.mirrorSampled
			s.add(span{Name: "emitter.mirror", Parent: walk, Window: pos, Start: t1, End: t2,
				Busy: busy, Calls: l.mirrorCalls})
		}
	}
	t := s.now()
	dumps, st := l.sw.EndWindow()
	t1 := s.now()
	s.add(span{Name: "pisa.dump", Parent: root, Window: pos, Start: t, End: t1})
	l.em.HandleDumps(dumps)
	t2 := s.now()
	s.add(span{Name: "emitter.dump_ingest", Parent: root, Window: pos, Start: t1, End: t2})
	results, met := l.engine.EndWindow()
	t3 := s.now()
	s.add(span{Name: "stream.eval", Parent: root, Window: pos, Start: t2, End: t3})
	rep := ledgerReport{tuples: met.TuplesIn, stats: st}
	rep.stats.PacketsIn = uint64(len(frames))
	rep.emFrames, rep.emMalformed = l.em.WindowStats()
	for li := range l.links {
		lk := &l.links[li]
		lk.keys = refinedKeys(results, lk)
		l.dyn.Replace(lk.table, lk.keys)
		for _, side := range []pisa.Side{pisa.SideLeft, pisa.SideRight} {
			// Instances whose cut keeps the dynamic filter at the stream
			// processor reject the update, as in the runtime.
			if n, err := l.sw.UpdateDynTable(lk.qid, lk.to, side, 0, lk.keys); err == nil {
				rep.filterUpdates += n
			}
		}
		rep.filterUpdates += len(lk.keys)
	}
	t4 := s.now()
	s.add(span{Name: "runtime.refine", Parent: root, Window: pos, Start: t3, End: t4})
	sp := &s.spans[root-1]
	sp.End, sp.Busy = t4, t4-rootStart
	rep.digest = digest(results)
	return rep
}

// twinWindow replays one window through both twin switches on identical
// batches, alternating which goes first, and ends the window on both. With
// measure set the walk times are accumulated.
func (l *ledger) twinWindow(frames [][]byte, measure bool) {
	for off, b := 0, 0; off < len(frames); off, b = off+len(l.twinViews), b+1 {
		vs := l.twinViews[:min(len(l.twinViews), len(frames)-off)]
		for i := range vs {
			vs[i].Prepare(l.twinParser, frames[off+i])
		}
		if l.twinPre.Active() {
			l.twinPre.Eval(vs, &l.twinMasks)
		}
		order := [2]int{0, 1}
		if b%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, which := range order {
			sw := l.twinPlain
			if which == 1 {
				sw = l.twinFR
			}
			t := time.Now()
			sw.ProcessViewsPre(vs, &l.twinMasks)
			if measure {
				l.twinNS[which] += time.Since(t)
			}
		}
	}
	l.twinPlain.EndWindow()
	l.twinFR.EndWindow()
}

// twinRefine applies the main pipeline's latest refinement keys to both
// twins.
func (l *ledger) twinRefine() {
	for li := range l.links {
		lk := &l.links[li]
		for _, sw := range []*pisa.Switch{l.twinPlain, l.twinFR} {
			for _, side := range []pisa.Side{pisa.SideLeft, pisa.SideRight} {
				_, _ = sw.UpdateDynTable(lk.qid, lk.to, side, 0, lk.keys) // rejected where the filter runs at the stream processor
			}
		}
	}
}

// refinedKeys extracts the dynamic-filter keys one level's results gate the
// next level with; for join queries the gate is the intersection of the
// sub-queries' outputs (the runtime's rule).
func refinedKeys(results []stream.Result, l *refLink) []string {
	keys := l.keys[:0]
	for i := range results {
		res := &results[i]
		if res.QID != l.qid || res.Level != l.from {
			continue
		}
		if res.RightOutputs == nil && res.LeftOutputs == nil {
			for _, t := range res.Tuples {
				if l.keyCol < len(t) {
					keys = append(keys, stream.DynKeyFromValue(l.field, t[l.keyCol], int(l.from)))
				}
			}
			continue
		}
		rset := sideKeys(res.RightOutputs, res.RightSchema, l.field, int(l.from))
		lset := sideKeys(res.LeftOutputs, res.LeftSchema, l.field, int(l.from))
		switch {
		case lset == nil:
			for k := range rset {
				keys = append(keys, k)
			}
		case rset == nil:
			for k := range lset {
				keys = append(keys, k)
			}
		default:
			for k := range rset {
				if _, ok := lset[k]; ok {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

func sideKeys(outs [][]tuple.Value, schema tuple.Schema, f fields.ID, level int) map[string]struct{} {
	if outs == nil || schema == nil {
		return nil
	}
	col := schema.Index(f)
	if col < 0 {
		return nil
	}
	set := make(map[string]struct{}, len(outs))
	for _, t := range outs {
		if col < len(t) {
			set[stream.DynKeyFromValue(f, t[col], level)] = struct{}{}
		}
	}
	return set
}

// ledgerCycles is how many cycles the ledger measures after its warm-up.
const ledgerCycles = 2

// runLedger replays the warm-up and ledgerCycles cycles through the ledger,
// the twins and a fresh uninstrumented Workers=1 runtime, compares every
// window's report, and reduces the measured cycles' spans to per-layer
// metrics.
func runLedger(plan *planner.Plan, in *inputs, warm int, spans *spanLog) (map[string]float64, error) {
	l, err := newLedger(plan, spans)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	k := len(in.timed)
	var rtNS time.Duration
	var frames, windows int
	var sum ledgerReport
	for pos := 0; pos < warm+ledgerCycles*k; pos++ {
		f := in.timed[pos%k]
		measure := pos >= warm
		l.twinWindow(f, measure)
		// Alternate which pipeline meets the window first, so neither
		// always starts from the caches the other left behind.
		var got ledgerReport
		var rep *runtime.WindowReport
		var d time.Duration
		if pos%2 == 0 {
			got = l.window(pos, f)
		}
		t := time.Now()
		rep = rt.ProcessWindow(f)
		d = time.Since(t)
		if pos%2 == 1 {
			got = l.window(pos, f)
		}
		l.twinRefine()
		if want := fromRuntime(rep); got != want {
			return nil, fmt.Errorf("ledger window %d differs from the Workers=1 runtime: got %+v want %+v", pos, got, want)
		}
		if !measure {
			continue
		}
		rtNS += d
		frames += len(f)
		windows++
		sum.tuples += got.tuples
		sum.filterUpdates += got.filterUpdates
		sum.emFrames += got.emFrames
		sum.emMalformed += got.emMalformed
		sum.stats.Merge(got.stats)
	}
	keep := func(s *span) bool { return s.Window >= warm }
	self := spans.selfTimes(keep)
	busy, calls := spans.totals(keep)
	fr, w := float64(frames), float64(windows)
	root := float64(busy["ledger.window"])
	covered := root - float64(self["ledger.window"])
	m := map[string]float64{
		"packet.parse_ns_per_frame":         float64(self["packet.parse"]) / fr,
		"pisa.prescreen_ns_per_frame":       float64(self["pisa.prescreen"]) / fr,
		"pisa.walk_ns_per_frame":            float64(self["pisa.walk"]) / fr,
		"pisa.recorder_tax":                 l.twinNS[1].Seconds() / l.twinNS[0].Seconds(),
		"emitter.mirror_ns_per_tuple":       ratio(float64(self["emitter.mirror"]), float64(calls["emitter.mirror"])),
		"pisa.dump_ms_per_window":           float64(self["pisa.dump"]) / w / 1e6,
		"emitter.dump_ingest_ms_per_window": float64(self["emitter.dump_ingest"]) / w / 1e6,
		"stream.eval_ms_per_window":         float64(self["stream.eval"]) / w / 1e6,
		"runtime.refine_ms_per_window":      float64(self["runtime.refine"]) / w / 1e6,
		"pisa.mirrors_per_frame":            float64(sum.stats.Mirrored) / fr,
		"pisa.collision_frac":               float64(sum.stats.Collisions) / fr,
		"pisa.dump_entries_per_window":      float64(sum.stats.DumpTuples) / w,
		"stream.tuples_in_per_window":       float64(sum.tuples) / w,
		"runtime.filter_updates_per_window": float64(sum.filterUpdates) / w,
		"emitter.malformed_frac":            ratio(float64(sum.emMalformed), float64(sum.emFrames)),
		"ledger.coverage_frac":              covered / root,
		"ledger.uncovered_ms_per_window":    float64(self["ledger.window"]) / w / 1e6,
		"ledger.overhead_frac":              root/float64(rtNS.Nanoseconds()) - 1,
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
