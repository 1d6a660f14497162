package sagemaker

import (
	"testing"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/nn/zoo"
)

func resnetJob(images int) Job {
	m := zoo.ResNet50(0)
	return Job{WeightsBytes: m.WeightBytes(), FLOPs: m.TotalFLOPs(), Images: images}
}

func mobilenetJob(images int) Job {
	m := zoo.MobileNet(0)
	return Job{WeightsBytes: m.WeightBytes(), FLOPs: m.TotalFLOPs(), Images: images}
}

func newPlatform() (*Platform, *billing.Meter) {
	meter := &billing.Meter{}
	return New(meter), meter
}

// Table 3 calibration: ResNet50 on Sage 1 ≈ 33 s / $0.014 and on Sage 2
// ≈ 485 s / $0.056. Assert within 35% (the simulator is calibrated to
// shapes, not decimals).
func TestResNet50Table3Calibration(t *testing.T) {
	p, _ := newPlatform()
	r1 := p.ServeNotebook(resnetJob(1))
	if s := r1.Completion.Seconds(); s < 20 || s > 50 {
		t.Errorf("Sage1 ResNet50 completion %.1fs, paper 33.3s", s)
	}
	if r1.Cost < 0.009 || r1.Cost > 0.020 {
		t.Errorf("Sage1 ResNet50 cost $%.4f, paper $0.014", r1.Cost)
	}
	r2 := p.ServeHosted(resnetJob(1))
	if s := r2.Completion.Seconds(); s < 330 || s > 640 {
		t.Errorf("Sage2 ResNet50 completion %.1fs, paper 484.5s", s)
	}
	if r2.Cost < 0.038 || r2.Cost > 0.075 {
		t.Errorf("Sage2 ResNet50 cost $%.4f, paper $0.056", r2.Cost)
	}
}

// Table 4 shape: Sage 2 deployment+prediction is ≈400-470 s for the big
// models, dominated by endpoint creation.
func TestSage2DeployPlusPredictTable4(t *testing.T) {
	p, _ := newPlatform()
	for _, name := range []string{"resnet50", "inceptionv3", "xception"} {
		m, err := zoo.Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := p.ServeHosted(Job{WeightsBytes: m.WeightBytes(), FLOPs: m.TotalFLOPs(), Images: 1})
		dp := (r.Deploy + r.Predict + r.Load).Seconds()
		if dp < 380 || dp > 520 {
			t.Errorf("%s Sage2 deploy+predict %.1fs, paper ≈400-465s", name, dp)
		}
	}
}

func TestSage2SlowerAndCostlierThanSage1(t *testing.T) {
	p, _ := newPlatform()
	for name, job := range map[string]Job{"resnet50": resnetJob(1), "mobilenet": mobilenetJob(1)} {
		r1 := p.ServeNotebook(job)
		r2 := p.ServeHosted(job)
		if r2.Completion <= r1.Completion {
			t.Errorf("%s: Sage2 (%v) not slower than Sage1 (%v)", name, r2.Completion, r1.Completion)
		}
		if r2.Cost <= r1.Cost {
			t.Errorf("%s: Sage2 ($%.4f) not costlier than Sage1 ($%.4f)", name, r2.Cost, r1.Cost)
		}
	}
}

func TestSage2LoadSlowerThanSage1PathIsNetworkBound(t *testing.T) {
	p, _ := newPlatform()
	job := resnetJob(1)
	r1 := p.ServeNotebook(job)
	r2 := p.ServeHosted(job)
	// The paper's Fig 5: Sage 2 loading (via S3) exceeds Sage 1's
	// self-loading. Our Sage2 load+stage spans must exceed Sage1 load.
	sage2LoadPath := r2.Load + (r2.Deploy - endpointCreateTime)
	if sage2LoadPath <= r1.Load {
		t.Errorf("Sage2 load path %v not slower than Sage1 %v", sage2LoadPath, r1.Load)
	}
}

func TestBatchScalesPredictOnly(t *testing.T) {
	p, _ := newPlatform()
	single := p.ServeNotebook(mobilenetJob(1))
	batch := p.ServeNotebook(mobilenetJob(10))
	if batch.Predict <= single.Predict {
		t.Fatal("batch predict did not grow")
	}
	if batch.Rearrange != single.Rearrange || batch.Load != single.Load {
		t.Fatal("batch changed load/rearrange")
	}
	// Marginal cost of 9 extra images must be far below 9× the job cost.
	if batch.Cost > single.Cost*2 {
		t.Fatalf("batch cost %.4f vs single %.4f", batch.Cost, single.Cost)
	}
}

func TestMeterCategories(t *testing.T) {
	p, meter := newPlatform()
	p.ServeHosted(resnetJob(1))
	for _, cat := range []string{"sagemaker:notebook", "sagemaker:hosting", "sagemaker:data"} {
		if meter.Breakdown()[cat] <= 0 {
			t.Errorf("category %s not charged", cat)
		}
	}
}

func TestImagesDefaultsToOne(t *testing.T) {
	p, _ := newPlatform()
	j := mobilenetJob(1)
	j.Images = 0
	r0 := p.ServeNotebook(j)
	j.Images = 1
	r1 := p.ServeNotebook(j)
	if r0.Predict != r1.Predict {
		t.Fatal("Images=0 not treated as 1")
	}
}
