package obs

import "testing"

func TestReadRuntime(t *testing.T) {
	rt := ReadRuntime()
	if rt.Goroutines <= 0 {
		t.Errorf("Goroutines = %d, want > 0", rt.Goroutines)
	}
	if rt.HeapBytes == 0 {
		t.Errorf("HeapBytes = 0, want > 0")
	}
	if rt.At.IsZero() {
		t.Errorf("At is zero")
	}
}
