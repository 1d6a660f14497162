package core

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// TestSequentialRunExplainsPlan accounts, to the nanosecond and to the
// last bit of cost, for the gap between a plan's EstTime/EstCost (Eq. 2
// and 3) and one cold sequential run of it, on the 2020 and the 2021
// quota, for every zoo model that plans (bertbase aside: even zero, its
// 440 MB of weights take the test past 1 GB; vgg16 has no feasible
// plan).
//
// The planner prices partition i as T_i = EndToEndTime(profile weight
// bytes) + transfer(input activation) + transfer(output activation). The
// run differs by exactly five terms: each invocation's dispatch latency;
// the input upload; the last partition's output transfer, which the plan
// counts but the handler never makes (it returns the prediction in its
// response); the weight container's framing, which the handler loads
// and holds on top of the profile's bytes; and the activation encoding's
// header on every S3 read and write. The cost is the meter's charges for
// those same durations: on the 2020 quota the 100 ms billing quanta
// absorb the gap, so execution bills what the plan priced.
func TestSequentialRunExplainsPlan(t *testing.T) {
	const dispatch = 30 * time.Millisecond // coordinator's invokeDispatchLatency
	st := s3.DefaultConfig()
	enc := func(shape tensor.Shape) int64 { return int64(len(modelfmt.EncodeTensor(tensor.New(shape...)))) }
	clouds := map[string]func() *Framework{
		"2020": func() *Framework { return NewFramework(Options{}) },
		"2021": func() *Framework {
			meter := &billing.Meter{}
			return &Framework{
				platform: lambda.NewWithQuota(meter, perf.Default(), pricing.Quota2021()),
				store:    s3.New(s3.DefaultConfig(), meter), meter: meter,
			}
		},
	}
	weights := map[string]nn.Weights{}
	for _, quota := range []string{"2020", "2021"} {
		for _, name := range zoo.Names() {
			if name == "bertbase" {
				continue
			}
			m, err := zoo.Build(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if weights[name] == nil {
				weights[name] = zeroWeights(m)
			}
			w := weights[name]
			fw := clouds[quota]()
			svc, err := fw.Submit(m, w, SubmitOptions{Deploy: coordinator.Config{SkipCompute: true}})
			if name == "vgg16" {
				if err == nil {
					t.Fatalf("%s/%s: planned; the test expects no feasible plan", quota, name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", quota, name, err)
			}
			p, q, plan := fw.platform.Perf(), fw.platform.Quota(), svc.Plan
			before := fw.meter.Total()
			rep, err := svc.Deployment().Run(randomInput(m, 1), coordinator.RunOptions{Sequential: true})
			svc.Close()
			if err != nil {
				t.Fatalf("%s/%s: %v", quota, name, err)
			}

			upload := st.TransferTime(enc(m.InputShape))
			want := &billing.Meter{}
			want.Add("s3:put", pricing.S3PutRequest) // the input upload
			completion := upload
			var planExec, runExec float64
			var framing, headers, lastOut time.Duration
			var stored []int64 // encoded intermediate bytes in the store as each partition ran
			var held []time.Duration
			var inStore int64
			bounds := plan.Bounds()
			k := len(plan.Lambdas)
			for i, lp := range plan.Lambdas {
				prof, last := lp.Profile, i == k-1
				part, err := m.Partition(bounds[i], bounds[i+1])
				if err != nil {
					t.Fatal(err)
				}
				shipped, err := modelfmt.WeightsSize(part, nn.SubsetWeights(m, w, bounds[i], bounds[i+1]), 0)
				if err != nil {
					t.Fatal(err)
				}
				core := p.EndToEndTime(lp.MemoryMB, prof.FLOPs, prof.WeightsBytes)
				if ti := core + st.TransferTime(prof.InBytes) + st.TransferTime(prof.OutBytes); lp.EstTime != ti {
					t.Fatalf("%s/%s partition %d: EstTime %v, want the handler model at the profile's bytes, %v", quota, name, i, lp.EstTime, ti)
				}
				out := part.Output().OutShape
				handler := p.EndToEndTime(lp.MemoryMB, prof.FLOPs, int64(shipped)) + st.TransferTime(enc(part.InputShape))
				framing += p.EndToEndTime(lp.MemoryMB, prof.FLOPs, int64(shipped)) - core
				headers += st.TransferTime(enc(part.InputShape)) - st.TransferTime(prof.InBytes)
				if last {
					lastOut = st.TransferTime(prof.OutBytes)
				} else {
					handler += st.TransferTime(enc(out))
					headers += st.TransferTime(enc(out)) - st.TransferTime(prof.OutBytes)
				}
				lr := rep.PerLambda[i]
				if got := lr.Init + lr.Load + lr.Read + lr.Compute + lr.Write; got != handler {
					t.Fatalf("%s/%s partition %d: handler ran %v, want %v", quota, name, i, got, handler)
				}
				completion += dispatch + handler
				planExec += q.ExecutionCost(lp.MemoryMB, lp.EstTime)
				runExec += q.ExecutionCost(lp.MemoryMB, handler)
				want.Add("lambda:invocations", pricing.LambdaInvocation)
				want.Add("lambda:execution", q.ExecutionCost(lp.MemoryMB, handler))
				want.Add("s3:get", pricing.S3GetRequest)
				if !last {
					want.Add("s3:put", pricing.S3PutRequest)
				}
				stored, held = append(stored, inStore), append(held, handler)
				if !last {
					inStore += enc(out)
				}
			}
			// Storage holds settle once the chain succeeded, in partition order.
			for i, b := range stored {
				if b > 0 {
					want.Add("s3:storage", float64(b)/(1<<30)*held[i].Seconds()*pricing.S3StoragePerGBSecond)
				}
			}

			if rep.Completion != completion {
				t.Fatalf("%s/%s: completion %v, want %v", quota, name, rep.Completion, completion)
			}
			gap := rep.Completion - plan.EstTime
			if terms := time.Duration(k)*dispatch + upload - lastOut + framing + headers; gap != terms {
				t.Fatalf("%s/%s: completion − EstTime = %v, the five terms sum to %v", quota, name, gap, terms)
			}
			t.Logf("%s/%s k=%d: completion − EstTime = %v = %v dispatch + %v upload − %v last output + %v weight framing + %v activation headers",
				quota, name, k, gap, time.Duration(k)*dispatch, upload, lastOut, framing, headers)
			if gotB, wantB := fw.meter.Breakdown(), want.Breakdown(); len(gotB) != len(wantB) {
				t.Fatalf("%s/%s: meter categories %v, want %v", quota, name, gotB, wantB)
			} else {
				for c, v := range wantB {
					if gotB[c] != v {
						t.Fatalf("%s/%s: %s charged %v, want %v", quota, name, c, gotB[c], v)
					}
				}
			}
			if before != 0 || rep.Cost != want.Total() {
				t.Fatalf("%s/%s: cost %v (meter before the run %v), want %v", quota, name, rep.Cost, before, want.Total())
			}
			if quota == "2020" && runExec != planExec {
				t.Fatalf("%s/%s: execution billed %v, the plan priced %v", quota, name, runExec, planExec)
			}
			t.Logf("%s/%s: cost − EstCost = %.3g (execution %.3g)", quota, name, rep.Cost-plan.EstCost, runExec-planExec)
		}
	}
}

// zeroWeights gives every parameter of m its shape and zero values: a
// timing-only deployment reads only the sizes.
func zeroWeights(m *nn.Model) nn.Weights {
	w := make(nn.Weights, len(m.Layers))
	for _, l := range m.Layers {
		for _, shape := range m.WeightSpecs(l) {
			w[l.Name] = append(w[l.Name], tensor.New(shape...))
		}
	}
	return w
}
