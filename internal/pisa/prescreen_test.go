package pisa

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fields"
	"repro/internal/flightrec"
	"repro/internal/packet"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// refinedSpec prepends a /8 dynamic filter on DstIP to q's left pipeline,
// the shape refinement installs at finer levels, and puts every table on
// the switch.
func refinedSpec(q *query.Query, level uint8, regEntries int) *InstanceSpec {
	aug := q.Clone()
	dyn := query.NewDynPacketFilter(fmt.Sprintf("%s.r%d", q.Name, level), fields.DstIP, 8)
	aug.Left.Ops = append([]query.Op{dyn}, aug.Left.Ops...)
	spec := specFor(aug, 0, regEntries)
	spec.Level = level
	spec.CutAt = len(spec.Tables)
	return spec
}

// funnelStages describes every op of spec to the recorder as a left-side,
// switch-resident stage, so committed records carry the switch funnel.
func funnelStages(spec *InstanceSpec) []flightrec.StageInfo {
	stages := make([]flightrec.StageInfo, len(spec.Ops))
	for i := range spec.Ops {
		stages[i] = flightrec.StageInfo{Label: fmt.Sprintf("L%d", i),
			Stateful: spec.Ops[i].Kind == query.OpReduce || spec.Ops[i].Kind == query.OpDistinct,
			OnSwitch: true}
	}
	return stages
}

// funnelSide is one switch of the funnel differential with its recorder and
// its mirrors, rendered per instance in arrival order.
type funnelSide struct {
	sw      *Switch
	rec     *flightrec.Recorder
	mirrors map[string]*strings.Builder
}

// takeMirrors renders the window's mirrors instance by instance (the batch
// walk reorders mirrors across instances, never within one) and resets them.
func (s *funnelSide) takeMirrors() string {
	keys := make([]string, 0, len(s.mirrors))
	for k := range s.mirrors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&out, "%s:%s\n", k, s.mirrors[k])
	}
	s.mirrors = map[string]*strings.Builder{}
	return out.String()
}

// TestProcessViewsFunnelsMatchProcess drives one program through the
// per-frame walk (Process) and the prescreened batch walk (ProcessViews),
// each with a flight recorder attached, and requires identical mirrors,
// dumps, window stats and committed records — per-op funnels included.
// The program covers a leading dynamic filter that stays unpublished for
// the first window, a dynamic filter followed by a multi-clause static
// filter, a plain static prefix, and instances with no screenable prefix
// (a leading map, and nothing on the switch at all).
func TestProcessViewsFunnelsMatchProcess(t *testing.T) {
	synCount := query.NewBuilder("syn", time.Second).
		Filter(query.Eq(fields.TCPFlags, fields.FlagSYN)).
		Map(query.F(fields.DstIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.DstIP).
		Filter(query.Gt(fields.AggVal, 2)).
		MustBuild()
	synCount.ID = 1
	lowPorts := query.NewBuilder("low", time.Second).
		Filter(query.Eq(fields.Proto, 6), query.Eq(fields.TCPFlags, fields.FlagSYN),
			query.Lt(fields.SrcPort, 40)).
		Map(query.F(fields.DstIP), query.F(fields.SrcPort)).
		MustBuild()
	lowPorts.ID = 2
	spread := query.NewBuilder("spread", time.Second).
		Map(query.F(fields.SrcIP), query.F(fields.DstIP)).
		Distinct().
		Map(query.C(fields.SrcIP), query.ConstCol(1)).
		Reduce(query.AggSum, fields.SrcIP).
		MustBuild()
	spread.ID = 3
	allSP := query1(0)
	allSP.ID = 4

	idle := refinedSpec(synCount, 16, 16) // rules published only from window 1
	gated := refinedSpec(lowPorts, 16, 0)
	plain := specFor(synCount, 4, 16)
	noPrefix := specFor(spread, 5, 32)
	noPrefix.QID = 3
	none := specFor(allSP, 0, 0)
	none.QID = 4
	prog := &Program{Instances: []*InstanceSpec{idle, gated, plain, noPrefix, none}}

	build := func() *funnelSide {
		s := &funnelSide{rec: flightrec.New(4, nil), mirrors: map[string]*strings.Builder{}}
		sw, err := NewSwitch(DefaultConfig(), prog, func(m Mirror) {
			k := fmt.Sprintf("q%d/%d", m.QID, m.Level)
			b := s.mirrors[k]
			if b == nil {
				b = &strings.Builder{}
				s.mirrors[k] = b
			}
			fmt.Fprintf(b, " %v/%d/%d/%v/%d", m.Overflow, m.MergeOp, m.EntryOp, m.Vals, len(m.Packet))
		})
		if err != nil {
			t.Fatal(err)
		}
		probes := map[[2]int]*flightrec.Probe{}
		for _, spec := range prog.Instances {
			probes[[2]int{int(spec.QID), int(spec.Level)}] = s.rec.Track(flightrec.TrackConfig{
				QID: spec.QID, Level: spec.Level, NumLeft: len(spec.Ops), Stages: funnelStages(spec)})
		}
		sw.AttachFlightRec(func(qid uint16, level uint8) *flightrec.Probe {
			return probes[[2]int{int(qid), int(level)}]
		})
		s.sw = sw
		return s
	}
	perFrame, batched := build(), build()

	r := rand.New(rand.NewSource(7))
	dsts := []uint32{packet.IPv4Addr(9, 1, 1, 1), packet.IPv4Addr(9, 2, 0, 7),
		packet.IPv4Addr(10, 1, 1, 1), packet.IPv4Addr(11, 0, 0, 3)}
	parser := packet.NewParser(packet.ParserOptions{})
	views := make([]View, 200)
	for win := 0; win < 3; win++ {
		switch win {
		case 0:
			key := stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(dsts[0])), 8)
			for _, s := range []*funnelSide{perFrame, batched} {
				if _, err := s.sw.UpdateDynTable(2, 16, SideLeft, 0, []string{key}); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			key := stream.DynKeyFromValue(fields.DstIP, tuple.U64(uint64(dsts[2])), 8)
			for _, s := range []*funnelSide{perFrame, batched} {
				if _, err := s.sw.UpdateDynTable(1, 16, SideLeft, 0, []string{key}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var frames [][]byte
		for i := 0; i < 1500; i++ {
			spec := &packet.FrameSpec{SrcIP: uint32(r.Intn(40) + 1), DstIP: dsts[r.Intn(len(dsts))],
				Proto: 6, SrcPort: uint16(r.Intn(80) + 1), DstPort: 80, TCPFlags: fields.FlagSYN, Pad: 60}
			switch r.Intn(6) {
			case 0:
				spec.TCPFlags = fields.FlagACK
			case 1:
				spec.Proto = 17
			}
			f := packet.BuildFrame(nil, spec)
			if r.Intn(50) == 0 {
				f = f[:20] // truncated: not runnable
			}
			frames = append(frames, f)
		}

		for _, f := range frames {
			perFrame.sw.Process(f)
		}
		// Batch sizes straddle the 64-frame bitmap words.
		sizes := []int{1, 63, 64, 65, 200, 7}
		for i, k := 0, 0; i < len(frames); k++ {
			n := min(sizes[k%len(sizes)], len(frames)-i)
			for j := 0; j < n; j++ {
				views[j].Prepare(parser, frames[i+j])
			}
			batched.sw.ProcessViews(views[:n])
			i += n
		}

		dumpsF, statsF := perFrame.sw.EndWindow()
		gotF := fmt.Sprint(dumpsF)
		dumpsB, statsB := batched.sw.EndWindow()
		if gotB := fmt.Sprint(dumpsB); gotB != gotF {
			t.Errorf("window %d dumps:\nbatched   %s\nper-frame %s", win, gotB, gotF)
		}
		statsB.PacketsIn = statsF.PacketsIn // the batch walk leaves it to the parse side
		if statsB != statsF {
			t.Errorf("window %d stats: batched %+v, per-frame %+v", win, statsB, statsF)
		}
		if got, want := batched.takeMirrors(), perFrame.takeMirrors(); got != want {
			t.Errorf("window %d mirrors diverge\n--- batched\n%s--- per-frame\n%s", win, got, want)
		}

		var recs [2]string
		for i, s := range []*funnelSide{perFrame, batched} {
			s.rec.Commit(win, uint64(len(frames)), nil)
			for _, rec := range s.rec.Snapshot(0).Queries {
				recs[i] += fmt.Sprintf("%+v\n", rec)
			}
		}
		if recs[0] != recs[1] {
			t.Errorf("window %d records diverge\n--- batched\n%s--- per-frame\n%s", win, recs[1], recs[0])
		}
		if win == 0 && !strings.Contains(recs[0], "{Label:L0 In:") {
			t.Fatalf("records carry no funnel:\n%s", recs[0])
		}
	}
}
