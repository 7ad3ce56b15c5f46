package la

import "testing"

func TestRowView(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	rv := m.RowView(1)
	if rv[0] != 3 || rv[1] != 4 {
		t.Fatalf("RowView(1) = %v", rv)
	}
	rv[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("RowView must alias matrix storage")
	}
}

// TestWorkspaceReuse asserts the arena contract: slices taken before a grow
// stay valid, and after warm-up Take/Reset cycles never allocate.
func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	a := ws.Take(4)
	for i := range a {
		a[i] = float64(i)
	}
	b := ws.Take(100) // forces growth; a must stay intact
	_ = b
	for i := range a {
		if a[i] != float64(i) {
			t.Fatalf("slice taken before growth was clobbered: %v", a)
		}
	}

	ws.Reset()
	ws.Require(128)
	allocs := testing.AllocsPerRun(50, func() {
		ws.Reset()
		x := ws.Take(64)
		y := ws.Take(64)
		x[0], y[0] = 1, 2
	})
	if allocs != 0 {
		t.Fatalf("warm workspace Take allocated %.1f times per run", allocs)
	}
}
