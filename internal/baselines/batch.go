package baselines

import (
	"fmt"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/tensor"
)

// BATCHSystem reproduces the BATCH baseline (Ali et al., SC'20) as the
// paper compares against it: inference serving on a single lambda (no
// model splitting) with requests buffered into fixed-size batches, one
// sequential lambda invocation per batch.
type BATCHSystem struct {
	svc       *core.Service
	BatchSize int
	// BufferWait is the time each batch spends accumulating in BATCH's
	// request buffer before dispatch (its adaptive-batching design waits
	// for the buffer to fill or a timer to fire). Added to completion,
	// not billed to the lambda.
	BufferWait time.Duration
}

// NewBATCH deploys the whole model on one lambda of fw's cloud with the
// given memory block, under cfg's deployment policy. It fails when the
// model does not fit a single function — BATCH has no answer for such
// models, which is the gap AMPS-Inf fills.
func NewBATCH(fw *core.Framework, cfg coordinator.Config, o *optimizer.Optimizer, weights nn.Weights, memMB, batchSize int) (*BATCHSystem, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("baselines: batch size %d", batchSize)
	}
	S := len(o.Segments())
	if !o.SpanFeasible(0, S) {
		return nil, fmt.Errorf("baselines: model %q does not fit a single lambda; BATCH cannot serve it", o.Model().Name)
	}
	plan, err := o.PlanForConfig([]int{0, S}, []int{memMB})
	if err != nil {
		return nil, err
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "batch"
	}
	svc, err := fw.Deploy(o.Model(), weights, plan, cfg)
	if err != nil {
		return nil, err
	}
	return &BATCHSystem{svc: svc, BatchSize: batchSize, BufferWait: 2 * time.Second}, nil
}

// Close tears down the deployment.
func (b *BATCHSystem) Close() { b.svc.Close() }

// BATCHReport describes one buffered serving run.
type BATCHReport struct {
	Completion time.Duration
	Cost       float64
	Batches    int
	Outputs    []*tensor.Tensor
}

// Serve buffers the images into batches of BatchSize and invokes the
// single lambda once per batch, sequentially (as the paper configures
// BATCH for Fig 13).
func (b *BATCHSystem) Serve(images []*tensor.Tensor) (*BATCHReport, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("baselines: no images")
	}
	rep := &BATCHReport{}
	for lo := 0; lo < len(images); lo += b.BatchSize {
		hi := lo + b.BatchSize
		if hi > len(images) {
			hi = len(images)
		}
		stacked, err := tensor.Stack(images[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("baselines: BATCH batch %d: %w", rep.Batches, err)
		}
		r, err := b.svc.Infer(stacked)
		if err != nil {
			return nil, fmt.Errorf("baselines: BATCH batch %d: %w", rep.Batches, err)
		}
		rep.Batches++
		rep.Completion += b.BufferWait + r.Completion
		rep.Cost += r.Cost
		// Unstack per-image outputs.
		out := r.Output
		n := out.Shape()[0]
		inner := out.Elems() / n
		for i := 0; i < n; i++ {
			row := make([]float32, inner)
			copy(row, out.Data()[i*inner:(i+1)*inner])
			shape := append([]int{1}, out.Shape()[1:]...)
			rep.Outputs = append(rep.Outputs, tensor.FromSlice(row, shape...))
		}
	}
	return rep, nil
}
