package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"effitest"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the recorder's epoch; Parent 0 means a root span; Lot -1 means the span
// belongs to no lot (set-up).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Lot    int    `json:"lot"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. All methods are safe
// for concurrent use.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	lots   map[int]int64 // lot → ID of the span its chips nest under
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), lots: map[int]int64{}}
}

// id reserves a span ID, so children can name a parent that has not ended.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span under a reserved ID (0 reserves one). A nil
// recorder (an untraced run) records nothing.
func (r *recorder) add(name string, id, parent int64, lot int, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	s := span{Name: name, ID: id, Parent: parent, Lot: lot,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// lotSpan reserves the ID of the span lot i's chips run under (the call the
// caller waits on while they run) and registers it as the parent of the
// chip spans the observer derives for that lot.
func (r *recorder) lotSpan(i int) int64 {
	if r == nil {
		return 0
	}
	id := r.id()
	r.mu.Lock()
	r.lots[i] = id
	r.mu.Unlock()
	return id
}

// lotParent returns the span ID registered for lot i, if any.
func (r *recorder) lotParent(i int) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.lots[i]
	return id, ok
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanTime is the per-name total of a span set: how many spans, their summed
// duration, and their summed self time.
type spanTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by its children. Overlapping children (parallel work
// under one parent) are merged before subtracting, and a child sticking out
// of its parent only covers the overlap, so self time is never negative.
func selfTimes(spans []span) []spanTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanTime{}
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]spanTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	slices.SortStableFunc(out, func(a, b spanTime) int { return cmp.Compare(b.Self, a.Self) })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// chipSpans turns flow events into spans: one "chip" span per chip under its
// lot's span, with "core.batch", "core.align_solve", "core.predict" and
// "core.configure" children. Chip indices are unique across a run (lot i
// owns manufacturing indices [i·lotChips, (i+1)·lotChips)), which is what
// maps a chip to its lot even when several lots run at once.
type chipSpans struct {
	rec      *recorder
	lotChips int

	mu   sync.Mutex
	open map[int]*openChip
}

type openChip struct {
	id, batchID, parent int64
	lot                 int
	start, batch, pred  time.Time
}

func newChipSpans(rec *recorder, lotChips int) *chipSpans {
	return &chipSpans{rec: rec, lotChips: lotChips, open: map[int]*openChip{}}
}

// Observe implements effitest.Observer.
func (cs *chipSpans) Observe(e effitest.Event) {
	now := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch e := e.(type) {
	case effitest.BatchStartEvent:
		oc := cs.open[e.Chip]
		if oc == nil {
			// Chips of unregistered lots (set-up campaigns) are
			// roots outside every lot.
			oc = &openChip{id: cs.rec.id(), start: now, lot: -1}
			if parent, ok := cs.rec.lotParent(e.Chip / cs.lotChips); ok {
				oc.parent, oc.lot = parent, e.Chip/cs.lotChips
			}
			cs.open[e.Chip] = oc
		}
		oc.batchID, oc.batch = cs.rec.id(), now
	case effitest.AlignSolveEvent:
		if oc := cs.open[e.Chip]; oc != nil {
			cs.rec.add("core.align_solve", 0, oc.batchID, oc.lot, now.Add(-e.Duration), now)
		}
	case effitest.BatchEndEvent:
		if oc := cs.open[e.Chip]; oc != nil {
			cs.rec.add("core.batch", oc.batchID, oc.id, oc.lot, oc.batch, now)
		}
	case effitest.PredictEvent:
		if oc := cs.open[e.Chip]; oc != nil {
			cs.rec.add("core.predict", 0, oc.id, oc.lot, now.Add(-e.Duration), now)
			oc.pred = now
		}
	case effitest.ChipDoneEvent:
		oc := cs.open[e.Chip]
		if oc == nil {
			return
		}
		delete(cs.open, e.Chip)
		if !oc.pred.IsZero() {
			// Configuration plus the final pass/fail test: everything after
			// prediction until the chip is done.
			cs.rec.add("core.configure", 0, oc.id, oc.lot, oc.pred, now)
		}
		cs.rec.add("chip", oc.id, oc.parent, oc.lot, oc.start, now)
	}
}

// printSelfTimes writes the self-time table of the traced run.
func printSelfTimes(w io.Writer, spans []span) {
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "span %-20s count=%-8d total_ms=%-12.3f self_ms=%.3f\n",
			st.Name, st.Count, float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
}
