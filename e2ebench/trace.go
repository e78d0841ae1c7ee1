package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made: a client call over the wire
// (a root), a call of the Forward hook, or a direct in-process call into a
// layer's public function. Mirror names the client span whose operation
// an in-process call repeats, so that wire time is the client span minus
// its mirror.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Mirror  uint64 `json:"mirror,omitempty"`
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0  time.Time
	ids atomic.Uint64
	// parent is the span the Forward hook files its spans under. Only
	// client 1 causes forwards, and it sets parent before each call.
	parent atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// record files a span that started at start and ends now.
func (r *recorder) record(name string, id, parent uint64, entries int, start time.Time) {
	r.recordMirror(name, id, parent, 0, entries, start)
}

func (r *recorder) recordMirror(name string, id, parent, mirror uint64, entries int, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Mirror: mirror, Name: name, Entries: entries,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
