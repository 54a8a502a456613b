package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the log's base instant. A span
// that folds several calls of one layer under one parent (the switch's
// per-tuple mirror callback) sets Calls and carries the summed call time in
// Busy; for a single call Busy is End-Start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Window int    `json:"window"` // shared by every span of one window
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// now is the current offset from the log's base.
func (l *spanLog) now() int64 { return time.Since(l.base).Nanoseconds() }

// add appends s, filling in its ID (and Busy/Calls for a single call).
func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	if s.Calls == 0 {
		s.Calls = 1
		s.Busy = s.End - s.Start
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTimes sums, per span name over the spans keep accepts, busy time
// minus the busy time of the span's children: the time the layer spent in
// its own code.
func (l *spanLog) selfTimes(keep func(*span) bool) map[string]int64 {
	child := make([]int64, len(l.spans)+1)
	for i := range l.spans {
		if p := l.spans[i].Parent; p > 0 {
			child[p] += l.spans[i].Busy
		}
	}
	out := make(map[string]int64)
	for i := range l.spans {
		if s := &l.spans[i]; keep(s) {
			out[s.Name] += s.Busy - child[s.ID]
		}
	}
	return out
}

// totals sums busy time and calls per span name over the spans keep
// accepts.
func (l *spanLog) totals(keep func(*span) bool) (busy, calls map[string]int64) {
	busy, calls = make(map[string]int64), make(map[string]int64)
	for i := range l.spans {
		if s := &l.spans[i]; keep(s) {
			busy[s.Name] += s.Busy
			calls[s.Name] += s.Calls
		}
	}
	return busy, calls
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
