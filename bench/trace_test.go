package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"effitest"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "lot", ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 60] once, not 30 + 30.
		{Name: "chip", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "chip", ID: 3, Parent: 1, Start: 30, End: 60},
		// A child sticking out of its parent covers only the overlap [90, 100].
		{Name: "chip", ID: 4, Parent: 1, Start: 90, End: 120},
		// Grandchildren reduce their own parent, not the lot.
		{Name: "core.batch", ID: 5, Parent: 2, Start: 10, End: 20},
		{Name: "core.batch", ID: 6, Parent: 2, Start: 25, End: 40},
		// A child nested entirely inside a sibling's interval adds nothing.
		{Name: "core.predict", ID: 7, Parent: 3, Start: 35, End: 36},
		{Name: "core.predict", ID: 8, Parent: 3, Start: 35, End: 36},
	}
	want := map[string]spanTime{
		"lot":          {Count: 1, Total: 100, Self: 100 - 50 - 10},
		"chip":         {Count: 3, Total: 30 + 30 + 30, Self: (30 - 25) + (30 - 1) + 30},
		"core.batch":   {Count: 2, Total: 25, Self: 25},
		"core.predict": {Count: 2, Total: 2, Self: 2},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		w := want[st.Name]
		if st.Count != w.Count || st.Total != w.Total || st.Self != w.Self {
			t.Errorf("%s: got count=%d total=%d self=%d, want count=%d total=%d self=%d",
				st.Name, st.Count, st.Total, st.Self, w.Count, w.Total, w.Self)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Self > got[i-1].Self {
			t.Errorf("self-time table not sorted descending: %+v", got)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 7}}, 6},
		{0, 10, [][2]int64{{-5, 3}, {9, 20}}, 4},
		{0, 10, [][2]int64{{11, 12}}, 0},
		{0, 10, [][2]int64{{0, 10}, {1, 2}}, 10},
		{0, 10, [][2]int64{{2, 4}, {4, 6}}, 4},
	} {
		if got := covered(tc.lo, tc.hi, tc.ivs); got != tc.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", tc.lo, tc.hi, tc.ivs, got, tc.want)
		}
	}
}

func TestChipSpansNestUnderLot(t *testing.T) {
	rec := newRecorder()
	lot := rec.lotSpan(1)
	cs := newChipSpans(rec, 8)
	for _, e := range []effitest.Event{
		effitest.BatchStartEvent{Chip: 9, Batch: 0},
		effitest.AlignSolveEvent{Chip: 9, Batch: 0, Duration: time.Microsecond},
		effitest.BatchEndEvent{Chip: 9, Batch: 0},
		effitest.PredictEvent{Chip: 9, Duration: time.Microsecond},
		effitest.ChipDoneEvent{Chip: 9},
		// Chip 40 belongs to lot 5, which has no span: it becomes a root.
		effitest.BatchStartEvent{Chip: 40, Batch: 0},
		effitest.ChipDoneEvent{Chip: 40},
	} {
		cs.Observe(e)
	}
	byName := map[string][]span{}
	for _, s := range rec.snapshot() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	chips := byName["chip"]
	if len(chips) != 2 {
		t.Fatalf("got %d chip spans, want 2", len(chips))
	}
	if chips[0].Parent != lot || chips[0].Lot != 1 {
		t.Errorf("chip 9 span: parent %d lot %d, want parent %d lot 1", chips[0].Parent, chips[0].Lot, lot)
	}
	if chips[1].Parent != 0 || chips[1].Lot != -1 {
		t.Errorf("chip 40 span: parent %d lot %d, want a root outside every lot", chips[1].Parent, chips[1].Lot)
	}
	batch := byName["core.batch"][0]
	if batch.Parent != chips[0].ID || byName["core.align_solve"][0].Parent != batch.ID {
		t.Errorf("batch/align_solve not nested under chip 9: %+v", byName)
	}
	if byName["core.predict"][0].Parent != chips[0].ID || byName["core.configure"][0].Parent != chips[0].ID {
		t.Errorf("predict/configure not nested under chip 9: %+v", byName)
	}

	var buf bytes.Buffer
	if err := rec.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(rec.snapshot()) {
		t.Fatalf("wrote %d lines for %d spans", len(lines), len(rec.snapshot()))
	}
	var s span
	if err := json.Unmarshal(lines[0], &s); err != nil || s.Name == "" {
		t.Fatalf("span line %q does not decode: %v", lines[0], err)
	}
}
