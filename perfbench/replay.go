package main

import (
	"fmt"
	"hash/fnv"
	goruntime "runtime"
	"runtime/metrics"
	"time"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

// expect is what one window must produce: the finest-level results digest
// and the number of tuples delivered to the stream processor.
type expect struct {
	digest uint64
	tuples uint64
}

// warmup is the number of windows replayed before timing (and before the
// reference is recorded): enough for every refinement chain to fill, since
// a window's outputs depend on the previous Delay-1 windows' results.
func warmup(plan *planner.Plan) int {
	w := 1
	for _, qp := range plan.Queries {
		if d := qp.Delay(); d > w {
			w = d
		}
	}
	return w
}

// reference replays warm-up plus one cycle through a separate,
// uninstrumented Workers=1 runtime on the same plan and frames. Past the
// warm-up a window's outputs depend only on the frames of the windows
// within its refinement delay, all of which repeat with the cycle, so the
// cycle's reports are what every later replay of the same window must
// produce. (Were that ever false, timed windows would fail the check: the
// assumption cannot hide a wrong answer.)
//
// It also checks the reference against the trace's ground truth: missed
// reports a key of an attack the workload's queries target that appears in
// no finest-level result. undetected lists, more strictly, each attack
// whose key none of its own targeting queries reported; it is printed on
// every run but does not gate.
func reference(plan *planner.Plan, in *inputs, warm int) (exp []expect, missed error, undetected []string, err error) {
	rt, err := runtime.NewWithOptions(plan, pisa.DefaultConfig(), runtime.Options{Workers: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	defer rt.Close()
	k := len(in.timed)
	exp = make([]expect, k)
	found := make(map[uint16]map[uint64]bool)
	anyQuery := make(map[uint64]bool)
	for pos := 0; pos < warm+k; pos++ {
		rep := rt.ProcessWindow(in.timed[pos%k])
		for _, res := range rep.Results {
			m := found[res.QID]
			if m == nil {
				m = make(map[uint64]bool)
				found[res.QID] = m
			}
			for _, t := range res.Tuples {
				if len(t) > 0 && !t[0].Str {
					m[t[0].U] = true
					anyQuery[t[0].U] = true
				}
			}
		}
		if pos >= warm {
			exp[pos%k] = expect{digest: digest(rep.Results), tuples: rep.TuplesToSP}
		}
	}
	qids := make(map[string]uint16)
	for _, qp := range plan.Queries {
		qids[qp.Query.Name] = qp.Query.ID
	}
	for _, gt := range in.truth {
		tg := targets[gt.Kind]
		key := gt.Victim
		if tg.attacker {
			key = gt.Attacker
		}
		targeted, hit := false, false
		for _, n := range tg.queries {
			if qid, ok := qids[n]; ok {
				targeted = true
				hit = hit || found[qid][uint64(key)]
			}
		}
		if !targeted {
			continue
		}
		ip := fmt.Sprintf("%d.%d.%d.%d", key>>24, key>>16&0xff, key>>8&0xff, key&0xff)
		if !hit {
			undetected = append(undetected, fmt.Sprintf("%s %s by %v", gt.Kind, ip, tg.queries))
		}
		if !anyQuery[uint64(key)] && missed == nil {
			missed = fmt.Errorf("reference never reported ground-truth %s key %s", gt.Kind, ip)
		}
	}
	return exp, missed, undetected, nil
}

// targets maps each attack class to the Table 3 queries that report it as
// their first result column, and whether they key on the attacker rather
// than the victim.
var targets = map[trace.AttackKind]struct {
	queries  []string
	attacker bool
}{
	trace.KindSYNFlood:      {queries: []string{"tcp_syn_flood", "newly_opened_tcp_conns"}},
	trace.KindSSHBrute:      {queries: []string{"ssh_brute_force"}},
	trace.KindSuperspreader: {queries: []string{"superspreader"}},
	trace.KindPortScan:      {queries: []string{"port_scan"}, attacker: true},
	trace.KindDDoS:          {queries: []string{"ddos"}},
	trace.KindIncomplete:    {queries: []string{"tcp_incomplete_flows"}},
	trace.KindSlowloris:     {queries: []string{"slowloris_attacks"}},
	trace.KindDNSTunnel:     {queries: []string{"dns_tunneling"}},
	trace.KindZorro:         {queries: []string{"zorro_attack"}},
	trace.KindDNSReflection: {queries: []string{"dns_reflection"}},
	trace.KindNewTCP:        {queries: []string{"newly_opened_tcp_conns"}},
}

// digest hashes a window's results. Tuples are combined order-independently
// within one (query, level) result; results are hashed in report order.
func digest(results []stream.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range results {
		res := &results[i]
		put(uint64(res.QID)<<8 | uint64(res.Level))
		put(uint64(len(res.Tuples)))
		var sum uint64
		for _, t := range res.Tuples {
			th := fnv.New64a()
			for _, v := range t {
				if v.Str {
					th.Write([]byte{1})
					th.Write([]byte(v.S))
				} else {
					th.Write([]byte{0})
					for j := range buf {
						buf[j] = byte(v.U >> (8 * j))
					}
					th.Write(buf[:])
				}
			}
			sum += th.Sum64()
		}
		put(sum)
	}
	return h.Sum64()
}

// windowRec is one replayed window's measurements. Times are nanoseconds
// since the run's base instant.
type windowRec struct {
	pos              int
	frames           int
	start, last, end int64
	tuples           uint64
	ok               bool
	traced           bool
	// Traced windows only.
	busy       []time.Duration
	allocBytes uint64
	pubStart   int64
	pubEnd     int64
}

// cycle aggregates one pass over the distinct windows.
type cycle struct {
	frames, tuples int
	busy           time.Duration // sum of window wall times
	traced         bool
}

// replayResult is everything a replay measured.
type replayResult struct {
	windows []windowRec
	cycles  []cycle
	stateMB float64
}

// replay is the closed loop cmd/sonata runs: one producer hands the next
// frame to Process only after the previous call returned (ring backpressure
// parks it inside Process), then closes the window. The first warm windows
// are untimed. Timed cycles run until seconds have passed; with tracing on,
// every other cycle is traced so the tracing overhead is measured against
// interleaved untraced cycles of the same run.
func replay(d *deployment, in *inputs, warm int, seconds float64, exp []expect, traced bool, spans *spanLog) *replayResult {
	k := len(in.timed)
	out := &replayResult{windows: make([]windowRec, 0, 1<<14)}
	base := spans.base
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	readAlloc := func() uint64 {
		metrics.Read(alloc)
		return alloc[0].Value.Uint64()
	}
	pos := 0
	run := func(rec bool, tr bool) windowRec {
		frames := in.timed[pos%k]
		var a0 uint64
		if tr {
			a0 = readAlloc()
		}
		t0 := time.Now()
		for _, f := range frames {
			d.rt.Process(f)
		}
		t1 := time.Now()
		rep := d.rt.CloseWindow()
		t2 := time.Now()
		w := windowRec{pos: pos, frames: len(frames),
			start: t0.Sub(base).Nanoseconds(), last: t1.Sub(base).Nanoseconds(),
			end: t2.Sub(base).Nanoseconds(), tuples: rep.TuplesToSP, traced: tr}
		if tr {
			w.allocBytes = readAlloc() - a0
			w.busy = rep.ShardBusy
			if d.sink != nil {
				w.pubStart = d.sink.start.Sub(base).Nanoseconds()
				w.pubEnd = d.sink.end.Sub(base).Nanoseconds()
			}
		}
		if rec {
			e := exp[pos%k]
			w.ok = e.tuples == rep.TuplesToSP && e.digest == digest(rep.Results)
		}
		pos++
		return w
	}
	for pos < warm {
		run(false, false)
	}
	start := time.Now()
	for c := 0; ; c++ {
		tr := traced && c%2 == 1
		cy := cycle{traced: tr}
		for i := 0; i < k; i++ {
			w := run(true, tr)
			if tr {
				recordWindowSpans(spans, &w)
			}
			cy.frames += w.frames
			cy.tuples += int(w.tuples)
			cy.busy += time.Duration(w.end - w.start)
			out.windows = append(out.windows, w)
		}
		out.cycles = append(out.cycles, cy)
		if time.Since(start).Seconds() >= seconds && (!traced || c%2 == 1) {
			break
		}
	}
	out.stateMB = float64(int64(liveHeap())-int64(d.heapBefore)) / (1 << 20)
	goruntime.KeepAlive(in) // the frames were live at heapBefore too
	return out
}

// recordWindowSpans records a traced window's spans: the window, the
// producer's dispatch loop, the close call and, inside it, the sink's
// Publish.
func recordWindowSpans(s *spanLog, w *windowRec) {
	root := s.add(span{Name: "runtime.window", Window: w.pos, Start: w.start, End: w.end})
	s.add(span{Name: "runtime.dispatch", Parent: root, Window: w.pos, Start: w.start, End: w.last})
	cl := s.add(span{Name: "runtime.close", Parent: root, Window: w.pos, Start: w.last, End: w.end})
	if w.pubEnd > 0 {
		s.add(span{Name: "subscribe.publish", Parent: cl, Window: w.pos, Start: w.pubStart, End: w.pubEnd})
	}
}

// e2eMetrics reduces the untraced windows and cycles of a replay.
type e2eMetrics struct {
	framesPerS, tuplesPerS float64
	fpsQ1, fpsQ3           float64
	closeP50, closeP90     float64 // ms
	closeN                 int
	tuplesPerKFrame        float64
	attempted, failed      int
}

func summarize(r *replayResult) e2eMetrics {
	var m e2eMetrics
	var fps, tps, closes []float64
	for _, c := range r.cycles {
		if c.traced {
			continue
		}
		s := c.busy.Seconds()
		fps = append(fps, float64(c.frames)/s)
		tps = append(tps, float64(c.tuples)/s)
	}
	var frames, tuples float64
	for _, w := range r.windows {
		m.attempted++
		if !w.ok {
			m.failed++
		}
		frames += float64(w.frames)
		tuples += float64(w.tuples)
		if !w.traced {
			closes = append(closes, float64(w.end-w.last)/1e6)
		}
	}
	m.framesPerS = median(fps)
	m.fpsQ1, m.fpsQ3 = quantile(fps, 0.25), quantile(fps, 0.75)
	m.tuplesPerS = median(tps)
	m.closeP50 = median(closes)
	m.closeP90 = quantile(closes, 0.9)
	m.closeN = len(closes)
	m.tuplesPerKFrame = tuples / frames * 1000
	return m
}

// runtimeLayer reduces the traced windows of a replay to the runtime-layer
// metrics, and the traced-vs-untraced cycles to the tracing overhead.
func runtimeLayer(r *replayResult) map[string]float64 {
	var dispatch, busyFrac, skew, potential, allocKB, publish []float64
	for _, w := range r.windows {
		if !w.traced {
			continue
		}
		dispatch = append(dispatch, float64(w.last-w.start)/float64(w.frames))
		allocKB = append(allocKB, float64(w.allocBytes)/1024)
		publish = append(publish, float64(w.pubEnd-w.pubStart)/1e6)
		if len(w.busy) == 0 {
			continue
		}
		var sum, top time.Duration
		for _, b := range w.busy {
			sum += b
			top = max(top, b)
		}
		n := float64(len(w.busy))
		wall := time.Duration(w.end - w.start)
		busyFrac = append(busyFrac, sum.Seconds()/(wall.Seconds()*n))
		if top > 0 {
			skew = append(skew, top.Seconds()/(sum.Seconds()/n))
			potential = append(potential, sum.Seconds()/top.Seconds())
		}
	}
	var tracedFPS, plainFPS []float64
	for _, c := range r.cycles {
		fps := float64(c.frames) / c.busy.Seconds()
		if c.traced {
			tracedFPS = append(tracedFPS, fps)
		} else {
			plainFPS = append(plainFPS, fps)
		}
	}
	return map[string]float64{
		"runtime.dispatch_ns_per_frame":   median(dispatch),
		"runtime.shard_busy_frac":         median(busyFrac),
		"runtime.shard_skew":              median(skew),
		"runtime.speedup_potential":       median(potential),
		"runtime.alloc_kb_per_window":     median(allocKB),
		"subscribe.publish_ms_per_window": median(publish),
		"trace.runtime_overhead_frac":     median(plainFPS)/median(tracedFPS) - 1,
	}
}
