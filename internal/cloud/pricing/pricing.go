// Package pricing is the October–November 2020 AWS price book the paper's
// experiments were billed under. All figures are public list prices for
// us-east-1 at that time; every simulator in internal/cloud meters cost
// through this package so that experiments reproduce the paper's dollar
// amounts (e.g. MobileNet at 512 MB for 22.03 s → $0.00018).
package pricing

import (
	"fmt"
	"time"
)

// Lambda pricing and quotas (2020).
const (
	// LambdaGBSecond is the execution price per GB-second.
	LambdaGBSecond = 0.0000166667
	// LambdaInvocation is the per-request price ($0.20 per million).
	LambdaInvocation = 0.0000002

	// LambdaMinMemoryMB is the smallest allocatable memory block (M in
	// the paper's constraint (7)).
	LambdaMinMemoryMB = 128
	// LambdaMemoryStepMB is the block increment (β in constraint (7)).
	LambdaMemoryStepMB = 64
	// LambdaMaxMemoryMB is the 2020 allocation cap.
	LambdaMaxMemoryMB = 3008

	// LambdaDeployLimitMB is the unzipped deployment-package cap (A).
	LambdaDeployLimitMB = 250
	// LambdaTmpLimitMB is the /tmp ephemeral-storage cap (J).
	LambdaTmpLimitMB = 512
	// LambdaMaxLayers is the function-layer cap.
	LambdaMaxLayers = 5
	// LambdaTimeout is the maximum function execution time.
	LambdaTimeout = 900 * time.Second

	// LambdaBillingGranularity: 2020 Lambda billed in 100 ms increments.
	LambdaBillingGranularity = 100 * time.Millisecond

	// LambdaAccountConcurrency is the default account-level concurrent-
	// execution limit (1,000 in 2020); invocations beyond it are rejected
	// with a 429 TooManyRequestsException.
	LambdaAccountConcurrency = 1000
)

// MemoryBlocks returns every allocatable Lambda memory size in MB, from
// the minimum block to the cap in step increments (128, 192, …, 3008) —
// the L choices of the paper's decision variable x.
func MemoryBlocks() []int {
	return Quota2020().MemoryBlocks()
}

// Quota captures the platform limits the formulation constrains against.
// The paper evaluates under the October–November 2020 quotas and names
// the December 2020 update (10,240 MB in 1 MB increments) as future
// work; both are provided.
type Quota struct {
	// MinMemoryMB is M, MemoryStepMB is β (constraint 7).
	MinMemoryMB  int
	MemoryStepMB int
	MaxMemoryMB  int
	// DeployLimitMB is A (constraint 4), TmpLimitMB is J (constraint 5).
	DeployLimitMB int
	TmpLimitMB    int
	MaxLayers     int
	Timeout       time.Duration
	// BillingGranularity is the execution-time rounding unit.
	// (CPU-share behaviour lives in perf.Params: a single-request
	// inference handler cannot exploit more than one vCPU, so the share
	// curve is quota-independent.)
	BillingGranularity time.Duration
	// AccountConcurrency is the account-wide concurrent-execution limit;
	// 0 falls back to the 2020 default of 1,000.
	AccountConcurrency int
}

// Quota2020 returns the limits the paper's experiments ran under.
func Quota2020() Quota {
	return Quota{
		MinMemoryMB: LambdaMinMemoryMB, MemoryStepMB: LambdaMemoryStepMB,
		MaxMemoryMB:   LambdaMaxMemoryMB,
		DeployLimitMB: LambdaDeployLimitMB, TmpLimitMB: LambdaTmpLimitMB,
		MaxLayers: LambdaMaxLayers, Timeout: LambdaTimeout,
		BillingGranularity: LambdaBillingGranularity,
		AccountConcurrency: LambdaAccountConcurrency,
	}
}

// Quota2021 returns the December 2020 update: 10,240 MB maximum in 1 MB
// increments and 1 ms billing granularity. Deployment and /tmp limits
// were unchanged at the time.
func Quota2021() Quota {
	return Quota{
		MinMemoryMB: 128, MemoryStepMB: 1, MaxMemoryMB: 10240,
		DeployLimitMB: LambdaDeployLimitMB, TmpLimitMB: LambdaTmpLimitMB,
		MaxLayers: LambdaMaxLayers, Timeout: LambdaTimeout,
		BillingGranularity: time.Millisecond,
		AccountConcurrency: LambdaAccountConcurrency,
	}
}

// Validate rejects a quota whose memory grid cannot be enumerated: a
// non-positive minimum or step, or a maximum below the minimum. Callers
// that accept a Quota from outside (optimizer.New) check it before
// walking the grid, which would otherwise divide by the step or index
// an empty block list.
func (q Quota) Validate() error {
	switch {
	case q.MinMemoryMB <= 0:
		return fmt.Errorf("pricing: quota MinMemoryMB = %d, want > 0", q.MinMemoryMB)
	case q.MemoryStepMB <= 0:
		return fmt.Errorf("pricing: quota MemoryStepMB = %d, want > 0", q.MemoryStepMB)
	case q.MaxMemoryMB < q.MinMemoryMB:
		return fmt.Errorf("pricing: quota MaxMemoryMB = %d below MinMemoryMB = %d", q.MaxMemoryMB, q.MinMemoryMB)
	}
	return nil
}

// ValidMemory reports whether memMB is allocatable under the quota.
func (q Quota) ValidMemory(memMB int) bool {
	return memMB >= q.MinMemoryMB && memMB <= q.MaxMemoryMB &&
		(memMB-q.MinMemoryMB)%q.MemoryStepMB == 0
}

// MemoryBlocks enumerates the quota's allocatable sizes. For fine-grained
// quotas this can be large (10,113 blocks for 2021); the optimizer
// accepts a coarser search grid via SearchBlocks.
func (q Quota) MemoryBlocks() []int {
	var blocks []int
	for mb := q.MinMemoryMB; mb <= q.MaxMemoryMB; mb += q.MemoryStepMB {
		blocks = append(blocks, mb)
	}
	return blocks
}

// SearchBlocks enumerates allocatable sizes on a grid of at least
// strideMB (snapped to valid blocks), always including the maximum.
func (q Quota) SearchBlocks(strideMB int) []int {
	if strideMB < q.MemoryStepMB {
		strideMB = q.MemoryStepMB
	}
	strideMB -= strideMB % q.MemoryStepMB
	if strideMB == 0 {
		strideMB = q.MemoryStepMB
	}
	blocks := make([]int, 0, (q.MaxMemoryMB-q.MinMemoryMB)/strideMB+2)
	for mb := q.MinMemoryMB; mb <= q.MaxMemoryMB; mb += strideMB {
		blocks = append(blocks, mb)
	}
	if blocks[len(blocks)-1] != q.MaxMemoryMB {
		blocks = append(blocks, q.MaxMemoryMB)
	}
	return blocks
}

// ExecutionCost returns the execution charge under the quota's billing
// granularity.
func (q Quota) ExecutionCost(memMB int, d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	g := q.BillingGranularity
	if g <= 0 {
		g = LambdaBillingGranularity
	}
	billed := (d + g - 1) / g * g
	return float64(memMB) / 1024.0 * billed.Seconds() * LambdaGBSecond
}

// LambdaExecutionCost returns the execution charge for a function with
// memMB of memory running for d, rounded up to the billing granularity,
// excluding the invocation fee.
func LambdaExecutionCost(memMB int, d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	g := LambdaBillingGranularity
	billed := (d + g - 1) / g * g
	gb := float64(memMB) / 1024.0
	return gb * billed.Seconds() * LambdaGBSecond
}

// S3 pricing (2020, standard tier).
const (
	// S3PutRequest is the price per PUT/COPY/POST/LIST request (U).
	S3PutRequest = 0.000005
	// S3GetRequest is the price per GET/SELECT request (G).
	S3GetRequest = 0.0000004
	// S3StorageGBMonth is the storage price per GB-month (basis for H).
	S3StorageGBMonth = 0.023
)

// S3StoragePerGBSecond is the storage price per GB-second (H in Eq. (3)),
// derived from the monthly rate over a 30-day month.
const S3StoragePerGBSecond = S3StorageGBMonth / (30 * 24 * 3600)

// Step Functions pricing (2020).
const (
	// StepFnTransition is the price per state transition ($0.025/1000).
	StepFnTransition = 0.000025
	// StepFnTransitionDelay is the observed latency per state transition;
	// the paper's footnote 2 measured ≈15 s over a 10-state workflow.
	StepFnTransitionDelay = 1500 * time.Millisecond
)

// SageMaker on-demand instance pricing (2020) and operational latencies.
const (
	// SageNotebookT2MediumHourly is the ml.t2.medium notebook price.
	SageNotebookT2MediumHourly = 0.0464
	// SageHostingM4XLargeHourly is the ml.m4.xlarge hosting price.
	SageHostingM4XLargeHourly = 0.28
	// SageStorageGBMonth is SageMaker ML storage per GB-month.
	SageStorageGBMonth = 0.14
	// SageDataProcessingGB is the per-GB data processing charge for
	// hosting instances (in+out).
	SageDataProcessingGB = 0.016
)

// InstanceHourlyCost converts an hourly rate and a runtime into dollars
// (per-second proration, as AWS bills on-demand ML instances).
func InstanceHourlyCost(hourly float64, d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return hourly * d.Hours()
}
