package coordinator

import (
	"testing"

	"ampsinf/internal/tensor"
)

func TestRunBatchedEmptySlice(t *testing.T) {
	_, d, _, _ := deployTinySplit(t)
	if _, err := d.RunBatched([]*tensor.Tensor{}); err == nil {
		t.Fatal("empty (non-nil) batch accepted")
	}
	if _, err := d.RunBatched(nil); err == nil {
		t.Fatal("nil batch accepted")
	}
}
