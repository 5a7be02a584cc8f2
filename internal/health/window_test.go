package health

import "testing"

// TestWindowSlides checks the count against a brute-force tail of the
// outcome history, through fill-up, wrap-around and Clear.
func TestWindowSlides(t *testing.T) {
	const size = 5
	var w Window
	var hist []bool
	for i := 0; i < 40; i++ {
		if i == 23 {
			w.Clear()
			hist = nil
		}
		fail := i%3 == 0 || i%7 == 0
		hist = append(hist, fail)
		want := 0
		for _, f := range hist[max(0, len(hist)-size):] {
			if f {
				want++
			}
		}
		if got := w.Push(fail, size); got != want {
			t.Fatalf("push %d: %d failures in view, want %d", i, got, want)
		}
	}
}
