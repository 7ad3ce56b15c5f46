package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openT opens a journal in a fresh temp dir without fsync (the discipline
// under test is framing and recovery, not the disk).
func openT(t *testing.T) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(dir, WithoutSync())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, dir
}

func reopenT(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir, WithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func spec(id string, count int) Spec {
	return Spec{
		ID:        id,
		Key:       "k-" + id,
		Name:      "campaign " + id,
		CircuitFP: "circ-fp",
		ConfigFP:  "conf-fp",
		ChipSeed:  7,
		ChipCount: count,
		Payload:   []byte(`{"name":"` + id + `"}`),
	}
}

func chip(i int, passed bool) ChipRecord {
	return ChipRecord{
		Index:     i,
		ChipIndex: 100 + i,
		Outcome: &Outcome{
			Iterations: 40 + i,
			ScanBits:   int64(1000 + i),
			AlignNS:    123456,
			PredictNS:  789,
			BoundsLo:   []float64{0.25, 0.5},
			BoundsHi:   []float64{0.75, 1.5},
			X:          []float64{1.0, -0.5},
			Xi:         0.125,
			Configured: true,
			Passed:     passed,
		},
	}
}

// TestRoundTrip pins the core contract: what Begin and AppendChip wrote, a
// fresh journal's Recover reads back record-for-record, field-for-field,
// and the resumed segment accepts further appends.
func TestRoundTrip(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 4)
	if err := j.Begin(sp); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := j.AppendChip(sp.ID, chip(0, true)); err != nil {
		t.Fatalf("AppendChip: %v", err)
	}
	if err := j.AppendChip(sp.ID, ChipRecord{Index: 1, ChipIndex: 101, Error: "deterministic failure"}); err != nil {
		t.Fatalf("AppendChip err record: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := reopenT(t, dir)
	camps, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(camps) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(camps))
	}
	c := camps[0]
	if c.Settled() {
		t.Fatalf("campaign settled = %q, want resumable", c.State)
	}
	if c.Spec.ID != sp.ID || c.Spec.Key != sp.Key || c.Spec.CircuitFP != sp.CircuitFP ||
		c.Spec.ConfigFP != sp.ConfigFP || c.Spec.ChipSeed != sp.ChipSeed ||
		c.Spec.ChipCount != sp.ChipCount || !bytes.Equal(c.Spec.Payload, sp.Payload) {
		t.Fatalf("spec did not round-trip: %+v", c.Spec)
	}
	if len(c.Chips) != 2 {
		t.Fatalf("recovered %d chips, want 2", len(c.Chips))
	}
	want := chip(0, true)
	got := c.Chips[0]
	if got.Index != want.Index || got.ChipIndex != want.ChipIndex || got.Outcome == nil {
		t.Fatalf("chip 0 did not round-trip: %+v", got)
	}
	if c.Chips[1].Error != "deterministic failure" || c.Chips[1].Outcome != nil {
		t.Fatalf("error chip did not round-trip: %+v", c.Chips[1])
	}

	// The recovered segment must still be appendable and settleable.
	if err := j2.AppendChip(sp.ID, chip(2, false)); err != nil {
		t.Fatalf("append after recover: %v", err)
	}
	if err := j2.Settle(sp.ID, "done", ""); err != nil {
		t.Fatalf("Settle after recover: %v", err)
	}
}

// Outcome contains slices, so the equality above cannot use ==. Keep the
// type non-comparable honest: compare the one outcome deeply here.
func TestOutcomeRoundTripDeep(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 1)
	if err := j.Begin(sp); err != nil {
		t.Fatal(err)
	}
	want := chip(0, true)
	if err := j.AppendChip(sp.ID, want); err != nil {
		t.Fatal(err)
	}
	j.Close()

	camps, err := reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 || len(camps[0].Chips) != 1 {
		t.Fatalf("recover: %v, %+v", err, camps)
	}
	got := camps[0].Chips[0].Outcome
	w := want.Outcome
	if got.Iterations != w.Iterations || got.ScanBits != w.ScanBits ||
		got.AlignNS != w.AlignNS || got.ConfigNS != w.ConfigNS || got.PredictNS != w.PredictNS ||
		got.Xi != w.Xi || got.Configured != w.Configured || got.Passed != w.Passed {
		t.Fatalf("outcome scalars: got %+v want %+v", got, w)
	}
	for name, pair := range map[string][2][]float64{
		"BoundsLo": {got.BoundsLo, w.BoundsLo},
		"BoundsHi": {got.BoundsHi, w.BoundsHi},
		"X":        {got.X, w.X},
	} {
		g, ww := pair[0], pair[1]
		if len(g) != len(ww) {
			t.Fatalf("%s length: %d != %d", name, len(g), len(ww))
		}
		for i := range g {
			if g[i] != ww[i] {
				t.Fatalf("%s[%d]: %v != %v (bit-identity broken)", name, i, g[i], ww[i])
			}
		}
	}
}

// TestSettleCompacts pins the compaction contract: after Settle, the
// segment shrinks to spec (payload stripped) + settle, recovery reports it
// terminal with no chips, and the segment refuses further appends.
func TestSettleCompacts(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 8)
	if err := j.Begin(sp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := j.AppendChip(sp.ID, chip(i, true)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(filepath.Join(dir, "c000001.wal"))
	if err := j.Settle(sp.ID, "done", ""); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	after, err := os.Stat(filepath.Join(dir, "c000001.wal"))
	if err != nil {
		t.Fatalf("stat after compact: %v", err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink segment: %d -> %d bytes", before.Size(), after.Size())
	}
	if st := j.Stats(); st.Compactions != 1 || st.OpenSegments != 0 || st.Segments != 1 {
		t.Fatalf("stats after settle: %+v", st)
	}
	if err := j.AppendChip(sp.ID, chip(0, true)); !errors.Is(err, ErrSegmentClosed) {
		t.Fatalf("append after settle = %v, want ErrSegmentClosed", err)
	}

	camps, err := reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 {
		t.Fatalf("recover: %v, %d campaigns", err, len(camps))
	}
	c := camps[0]
	if !c.Settled() || c.State != "done" {
		t.Fatalf("state = %q, want done", c.State)
	}
	if len(c.Chips) != 0 {
		t.Fatalf("compacted segment kept %d chips", len(c.Chips))
	}
	if c.Spec.Payload != nil {
		t.Fatal("compaction must drop the spec payload")
	}
	if c.Spec.Key != sp.Key {
		t.Fatal("compaction must keep the idempotency key")
	}

	// Compaction reads only the spec frame: a segment whose chip frames
	// are intact but hold JSON that does not decode compacts to the same
	// stub, byte for byte.
	stub, err := os.ReadFile(filepath.Join(dir, "c000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	j2, dir2 := openT(t)
	if err := j2.Begin(sp); err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendChip(sp.ID, chip(0, true)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir2, "c000001.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, garbage := range []string{`{"index": 1, "outcome": `, `not json`, `[1,2`} {
		if _, err := f.Write(appendFrame(nil, recChip, []byte(garbage))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := j2.Settle(sp.ID, "done", ""); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if st := j2.Stats(); st.Compactions != 1 {
		t.Fatalf("segment with undecodable chip frames was not compacted: %+v", st)
	}
	got, err := os.ReadFile(filepath.Join(dir2, "c000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stub) {
		t.Fatalf("compacted stub differs:\n got %q\nwant %q", got, stub)
	}
}

// TestTornTailTruncated simulates a crash mid-append: garbage after the
// last intact frame is cut on recovery and the intact records survive.
func TestTornTailTruncated(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 4)
	if err := j.Begin(sp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendChip(sp.ID, chip(i, true)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, "c000001.wal")
	intact, _ := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	// Half a header, as a torn final Write would leave.
	f.Write([]byte{0x20, 0x00, 0x00})
	f.Close()

	j2 := reopenT(t, dir)
	camps, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(camps) != 1 || len(camps[0].Chips) != 3 {
		t.Fatalf("recover after torn tail: %+v", camps)
	}
	if st := j2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	if fi, _ := os.Stat(path); fi.Size() != intact.Size() {
		t.Fatalf("tail not truncated: %d bytes, want %d", fi.Size(), intact.Size())
	}
	// The cut segment accepts appends again — the log stays append-clean.
	if err := j2.AppendChip(sp.ID, chip(3, true)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	j2.Close()
	camps, err = reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 || len(camps[0].Chips) != 4 {
		t.Fatalf("second recover: %v, %+v", err, camps)
	}
}

// TestBitFlipTruncates pins the CRC discipline: a flipped byte inside a
// frame body ends the trusted prefix at that frame — later records are
// gone (drop, never guess), earlier ones survive.
func TestBitFlipTruncates(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 4)
	if err := j.Begin(sp); err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		if err := j.AppendChip(sp.ID, chip(i, true)); err != nil {
			t.Fatal(err)
		}
		st := j.Stats()
		sizes = append(sizes, st.Bytes)
	}
	j.Close()

	path := filepath.Join(dir, "c000001.wal")
	data, _ := os.ReadFile(path)
	// Flip one bit in the body of the second chip record (between the size
	// snapshots after chip 0 and chip 1).
	pos := sizes[0] + frameHeader + 4
	data[pos] ^= 0x01
	os.WriteFile(path, data, 0o666)

	j2 := reopenT(t, dir)
	camps, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(camps) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(camps))
	}
	if got := len(camps[0].Chips); got != 1 {
		t.Fatalf("recovered %d chips after bit flip in chip 1, want 1", got)
	}
	if camps[0].Chips[0].Index != 0 {
		t.Fatalf("surviving chip is %d, want 0", camps[0].Chips[0].Index)
	}
	if st := j2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
}

// TestUntrustworthySegmentSkipped pins the never-fabricate rule: a segment
// whose spec does not match its file name is renamed aside, not adopted.
func TestUntrustworthySegmentSkipped(t *testing.T) {
	j, dir := openT(t)
	// A valid segment... under the wrong file name.
	if err := j.Begin(spec("c000009", 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Rename(filepath.Join(dir, "c000009.wal"), filepath.Join(dir, "c000001.wal")); err != nil {
		t.Fatal(err)
	}
	// And one that is pure garbage.
	os.WriteFile(filepath.Join(dir, "c000002.wal"), []byte("not a journal segment"), 0o666)

	j2 := reopenT(t, dir)
	camps, err := j2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(camps) != 0 {
		t.Fatalf("fabricated %d campaigns from corrupt segments", len(camps))
	}
	if st := j2.Stats(); st.SegmentsSkipped != 2 {
		t.Fatalf("SegmentsSkipped = %d, want 2", st.SegmentsSkipped)
	}
	for _, id := range []string{"c000001", "c000002"} {
		if _, err := os.Stat(filepath.Join(dir, id+".wal.corrupt")); err != nil {
			t.Errorf("%s not set aside: %v", id, err)
		}
	}
}

// TestDuplicateChipKeepsFirst: on replay the first record for an index
// wins; a duplicate (e.g. a retried append racing a crash) is dropped.
func TestDuplicateChipKeepsFirst(t *testing.T) {
	j, dir := openT(t)
	sp := spec("c000001", 4)
	if err := j.Begin(sp); err != nil {
		t.Fatal(err)
	}
	first := chip(2, true)
	second := chip(2, false)
	second.Outcome.Iterations = 999
	j.AppendChip(sp.ID, first)
	j.AppendChip(sp.ID, second)
	j.Close()

	camps, err := reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 {
		t.Fatalf("recover: %v", err)
	}
	if len(camps[0].Chips) != 1 || camps[0].Chips[0].Outcome.Iterations != first.Outcome.Iterations {
		t.Fatalf("duplicate handling: %+v", camps[0].Chips)
	}
}

// TestOutOfRangeAndOutcomelessChipsSkipped: individually damaged records
// inside an intact frame prefix are dropped without poisoning the segment.
func TestOutOfRangeAndOutcomelessChipsSkipped(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = appendJSON(t, buf, recSpec, spec("c000001", 2))
	buf = appendJSON(t, buf, recChip, ChipRecord{Index: 7, ChipIndex: 1, Outcome: &Outcome{Iterations: 1}}) // out of range
	buf = appendJSON(t, buf, recChip, ChipRecord{Index: -1, Error: "x"})                                    // negative
	buf = appendJSON(t, buf, recChip, ChipRecord{Index: 0, ChipIndex: 100})                                 // success without outcome
	buf = appendJSON(t, buf, recChip, chip(1, true))                                                        // good
	buf = appendFrame(buf, 99, []byte(`{"future":"record"}`))                                               // unknown type
	if err := os.WriteFile(filepath.Join(dir, "c000001.wal"), buf, 0o666); err != nil {
		t.Fatal(err)
	}
	j := reopenT(t, dir)
	camps, err := j.Recover()
	if err != nil || len(camps) != 1 {
		t.Fatalf("recover: %v", err)
	}
	if len(camps[0].Chips) != 1 || camps[0].Chips[0].Index != 1 {
		t.Fatalf("damage containment: %+v", camps[0].Chips)
	}
}

// TestRecordsAfterSettleIgnored: a settle ends the campaign's story; any
// trailing records (late appends racing the settle) are unreachable.
func TestRecordsAfterSettleIgnored(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = appendJSON(t, buf, recSpec, spec("c000001", 4))
	buf = appendJSON(t, buf, recChip, chip(0, true))
	buf = appendJSON(t, buf, recSettle, settleRecord{State: "cancelled", Error: "operator"})
	buf = appendJSON(t, buf, recChip, chip(1, true))
	os.WriteFile(filepath.Join(dir, "c000001.wal"), buf, 0o666)

	camps, err := reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 {
		t.Fatalf("recover: %v", err)
	}
	c := camps[0]
	if c.State != "cancelled" || c.Err != "operator" {
		t.Fatalf("settle: %q/%q", c.State, c.Err)
	}
	if len(c.Chips) != 1 {
		t.Fatalf("records after settle leaked: %+v", c.Chips)
	}
}

// TestBeginErrors covers the duplicate and validation refusals.
func TestBeginErrors(t *testing.T) {
	j, _ := openT(t)
	if err := j.Begin(spec("c000001", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(spec("c000001", 1)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Begin = %v, want ErrExists", err)
	}
	for _, id := range []string{"", ".hidden", "a/b", "a b", strings.Repeat("x", 201)} {
		if err := j.Begin(spec(id, 1)); err == nil {
			t.Errorf("Begin(%q) accepted an invalid id", id)
		}
	}
	if err := j.AppendChip("c999999", chip(0, true)); !errors.Is(err, ErrSegmentClosed) {
		t.Fatalf("append to unknown = %v, want ErrSegmentClosed", err)
	}
	if err := j.Settle("c999999", "done", ""); !errors.Is(err, ErrSegmentClosed) {
		t.Fatalf("settle unknown = %v, want ErrSegmentClosed", err)
	}
}

// TestCloseNeverSettles: Close is a crash-equivalent flush — reopening
// finds the campaign unsettled and resumable, and post-Close operations
// fail with ErrClosed.
func TestCloseNeverSettles(t *testing.T) {
	j, dir := openT(t)
	if err := j.Begin(spec("c000001", 2)); err != nil {
		t.Fatal(err)
	}
	j.AppendChip("c000001", chip(0, true))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendChip("c000001", chip(1, true)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if _, err := j.Recover(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recover after close = %v, want ErrClosed", err)
	}
	camps, err := reopenT(t, dir).Recover()
	if err != nil || len(camps) != 1 || camps[0].Settled() {
		t.Fatalf("campaign not resumable after Close: %v %+v", err, camps)
	}
}

// TestRecoverRemovesTempFiles: leftover compaction temp files from a crash
// mid-compaction are garbage (the settle in the main segment is already
// durable) and get removed.
func TestRecoverRemovesTempFiles(t *testing.T) {
	_, dir := openT(t)
	tmp := filepath.Join(dir, "c000001.wal.tmp")
	os.WriteFile(tmp, []byte("half-written compaction"), 0o666)
	if _, err := reopenT(t, dir).Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived recovery: %v", err)
	}
}

// appendJSON frames one record the way the writer does, for hand-built
// segment fixtures.
func appendJSON(t *testing.T, buf []byte, typ byte, v any) []byte {
	t.Helper()
	frame, err := encodeRecord(typ, v)
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, frame...)
}
