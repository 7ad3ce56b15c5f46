package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"effitest/fleet/httpapi"
)

// A result line far longer than bufio's 64 KiB default token size must
// stream intact, and the lines after it must still arrive.
func TestStreamResultsLongLine(t *testing.T) {
	long := httpapi.ChipResult{Index: 0, ChipIndex: 7, X: make([]float64, 8000)}
	for i := range long.X {
		long.X[i] = 0.1234567890123 + float64(i)
	}
	want := []httpapi.ChipResult{long, {Index: 1, ChipIndex: 8, Iterations: 3}}
	var body []byte
	for i, r := range want {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && len(line) <= 64<<10 {
			t.Fatalf("long line is only %d bytes; it must exceed 64 KiB", len(line))
		}
		body = append(append(body, line...), '\n')
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaigns/c000001/results" {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	}))
	defer ts.Close()

	var got []httpapi.ChipResult
	for res, err := range New(ts.URL).StreamResults(context.Background(), "c000001") {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].ChipIndex != want[i].ChipIndex ||
			got[i].Iterations != want[i].Iterations || !slices.Equal(got[i].X, want[i].X) {
			t.Fatalf("result %d changed in transit", i)
		}
	}
}
