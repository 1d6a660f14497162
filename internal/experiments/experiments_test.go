package experiments

import (
	"sync"
	"testing"
	"time"
)

// The comparisons are moderately expensive; run each once per test binary.
var (
	mainOnce sync.Once
	mainCmp  *MainComparison
	mainErr  error

	baseOnce sync.Once
	baseCmp  *BaselineComparison
	baseErr  error
)

func mainComparison(t *testing.T) *MainComparison {
	t.Helper()
	mainOnce.Do(func() { mainCmp, mainErr = RunMainComparison() })
	if mainErr != nil {
		t.Fatal(mainErr)
	}
	return mainCmp
}

func baselineComparison(t *testing.T) *BaselineComparison {
	t.Helper()
	baseOnce.Do(func() { baseCmp, baseErr = RunBaselineComparison() })
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	return baseCmp
}

func TestTable1Shapes(t *testing.T) {
	r := Table1()
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Model] = row
	}
	// The paper's premise: the big three exceed 250 MB deployed, MobileNet
	// fits, and the sizes match Table 1 (±3 MB).
	checks := map[string]struct {
		modelMB float64
		fits    bool
	}{
		"resnet50":    {98, false},
		"inceptionv3": {92, false},
		"mobilenet":   {16, true},
	}
	for name, want := range checks {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		gotMB := float64(row.ModelBytes) / (1 << 20)
		if gotMB < want.modelMB-3 || gotMB > want.modelMB+3 {
			t.Errorf("%s model size %.1f MB, paper %.0f", name, gotMB, want.modelMB)
		}
		if row.FitsLambda != want.fits {
			t.Errorf("%s fits-lambda = %v, want %v", name, row.FitsLambda, want.fits)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// The feasible sweep starts at 256 MB, as the paper's x-axis does.
	if r.Points[0].MemoryMB != 256 {
		t.Errorf("sweep starts at %d MB, paper starts at 256", r.Points[0].MemoryMB)
	}
	// Completion monotone non-increasing (1ms slack for rounding).
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Completion > r.Points[i-1].Completion+time.Millisecond {
			t.Errorf("completion increased at %d MB", r.Points[i].MemoryMB)
		}
	}
	// Cost is U-shaped with an interior minimum.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if r.CheapestMB <= first.MemoryMB || r.CheapestMB >= last.MemoryMB {
		t.Errorf("cheapest block %d is not interior (%d..%d)", r.CheapestMB, first.MemoryMB, last.MemoryMB)
	}
	var cheapest float64
	for _, p := range r.Points {
		if p.MemoryMB == r.CheapestMB {
			cheapest = p.Cost
		}
	}
	if first.Cost <= cheapest || last.Cost <= cheapest {
		t.Errorf("cost not U-shaped: ends %.6f/%.6f vs min %.6f", first.Cost, last.Cost, cheapest)
	}
}

func TestTable2Shapes(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2 ±20%: 22.03, 10.65, 7.52, 6.38, 6.32 seconds.
	want := map[int]float64{512: 22.03, 1024: 10.65, 1536: 7.52, 2048: 6.38, 3008: 6.32}
	for _, p := range r.Points {
		ref := want[p.MemoryMB]
		ratio := p.Completion.Seconds() / ref
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("@%d MB: %.2fs vs paper %.2fs", p.MemoryMB, p.Completion.Seconds(), ref)
		}
	}
	// 3008 must be the most expensive of the five (paper: $0.00031).
	maxCost, maxMB := 0.0, 0
	for _, p := range r.Points {
		if p.Cost > maxCost {
			maxCost, maxMB = p.Cost, p.MemoryMB
		}
	}
	if maxMB != 3008 {
		t.Errorf("most expensive block %d, want 3008", maxMB)
	}
}

func TestFigure2Shapes(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]SettingRun{}
	for _, run := range r.Runs {
		runs[run.Setting] = run
	}
	lam, s1, s2 := runs["Lambda 512MB"], runs["Sage 1"], runs["Sage 2"]
	if lam.Cost >= s1.Cost || lam.Cost >= s2.Cost {
		t.Errorf("lambda cost $%.5f not minimal ($%.4f / $%.4f)", lam.Cost, s1.Cost, s2.Cost)
	}
	if s2.Completion <= s1.Completion || s2.Completion <= lam.Completion {
		t.Error("Sage 2 not slowest")
	}
	// "Similar" completion: Lambda within 2× of Sage 1.
	if lam.Completion > 2*s1.Completion {
		t.Errorf("lambda %.1fs far from Sage1 %.1fs", lam.Completion.Seconds(), s1.Completion.Seconds())
	}
}

func TestTable3Shapes(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]SettingRun{}
	for _, run := range r.Runs {
		runs[run.Setting] = run
	}
	lam512 := runs["Lam. 512MB ×10"]
	lam1024 := runs["Lam. 1024MB ×10"]
	s1, s2 := runs["Sage 1"], runs["Sage 2"]
	// Paper: 1024 halves the 512 time and is the fastest setting.
	if ratio := lam512.Completion.Seconds() / lam1024.Completion.Seconds(); ratio < 1.7 {
		t.Errorf("512→1024 speedup only %.2f×, paper ≈2.2×", ratio)
	}
	if lam1024.Completion > s1.Completion || lam1024.Completion > s2.Completion {
		t.Error("Lam 1024 not the fastest setting")
	}
	// Both lambda settings are cheaper than both SageMaker settings.
	for _, lam := range []SettingRun{lam512, lam1024} {
		if lam.Cost >= s1.Cost || lam.Cost >= s2.Cost {
			t.Errorf("%s cost $%.4f not below SageMaker ($%.4f/$%.4f)", lam.Setting, lam.Cost, s1.Cost, s2.Cost)
		}
	}
}

func TestFigure5LoadOrdering(t *testing.T) {
	r := mainComparison(t)
	for _, row := range r.Rows {
		if row.AMPSLoad >= row.Sage1Load {
			t.Errorf("%s: AMPS load %v not below Sage1 %v", row.Model, row.AMPSLoad, row.Sage1Load)
		}
		if row.Sage2Load <= row.Sage1Load {
			t.Errorf("%s: Sage2 load %v not slowest (Sage1 %v)", row.Model, row.Sage2Load, row.Sage1Load)
		}
	}
}

func TestFigure6PredictOrdering(t *testing.T) {
	r := mainComparison(t)
	for _, row := range r.Rows {
		if row.AMPSPredict >= row.Sage1Predict {
			t.Errorf("%s: AMPS predict %v not below Sage1 %v", row.Model, row.AMPSPredict, row.Sage1Predict)
		}
	}
}

func TestTable4Sage2DeployDominates(t *testing.T) {
	r := mainComparison(t)
	for _, row := range r.Rows {
		s := row.Sage2DeployPredict.Seconds()
		if s < 380 || s > 540 {
			t.Errorf("%s: Sage2 deploy+predict %.0fs, paper ≈400-465s", row.Model, s)
		}
	}
}

func TestFigure7AMPSFastest(t *testing.T) {
	r := mainComparison(t)
	for _, row := range r.Rows {
		if row.AMPSCompletion >= row.Sage1Completion || row.AMPSCompletion >= row.Sage2Completion {
			t.Errorf("%s: AMPS %v not fastest (Sage1 %v, Sage2 %v)",
				row.Model, row.AMPSCompletion, row.Sage1Completion, row.Sage2Completion)
		}
		if row.AMPSPartitions < 2 {
			t.Errorf("%s: served with %d partitions; the 250 MB limit requires ≥2", row.Model, row.AMPSPartitions)
		}
	}
}

func TestFigure8CostSavings(t *testing.T) {
	r := mainComparison(t)
	for _, row := range r.Rows {
		vs1 := saving(row.AMPSCost, row.Sage1Cost)
		vs2 := saving(row.AMPSCost, row.Sage2Cost)
		if vs1 < 0.80 {
			t.Errorf("%s: saving vs Sage1 %.1f%%, paper ≥92%%", row.Model, vs1*100)
		}
		if vs2 < 0.95 {
			t.Errorf("%s: saving vs Sage2 %.1f%%, paper ≥98%%", row.Model, vs2*100)
		}
	}
}

func TestFigure9And10BaselineOrdering(t *testing.T) {
	r := baselineComparison(t)
	for _, row := range r.Rows {
		// Plan-level: B3 is cost-optimal, AMPS within ~20% of it (paper ≈9-14%).
		amps, b3, err := sloPlans(row.Model)
		if err != nil {
			t.Fatal(err)
		}
		if b3.EstCost > amps.EstCost+1e-12 {
			t.Errorf("%s: B3 plan cost above AMPS (%.6f vs %.6f)", row.Model, b3.EstCost, amps.EstCost)
		}
		if amps.EstCost > b3.EstCost*1.25 {
			t.Errorf("%s: AMPS %.1f%% over B3, paper ≈9-14%%", row.Model,
				(amps.EstCost/b3.EstCost-1)*100)
		}
		// Measured: AMPS faster than the cost-optimal B3 (it bought speed).
		if row.AMPS.Completion >= row.B3.Completion {
			t.Errorf("%s: AMPS %v not faster than B3 %v", row.Model, row.AMPS.Completion, row.B3.Completion)
		}
		// Measured costs: B3 ≤ AMPS ≤ B1, B3 ≤ B2.
		if row.B3.Cost > row.AMPS.Cost*1.02 {
			t.Errorf("%s: measured B3 cost above AMPS", row.Model)
		}
		if row.AMPS.Cost > row.B1.Cost {
			t.Errorf("%s: AMPS ($%.5f) costlier than random baseline ($%.5f)", row.Model, row.AMPS.Cost, row.B1.Cost)
		}
		if row.B3.Cost > row.B2.Cost {
			t.Errorf("%s: B3 costlier than max-memory B2", row.Model)
		}
	}
}

func TestFigure11SerferOverhead(t *testing.T) {
	r, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if r.Serfer.Completion <= r.AMPS.Completion {
		t.Errorf("Serfer %v not slower than AMPS %v", r.Serfer.Completion, r.AMPS.Completion)
	}
	if r.Serfer.Cost <= r.AMPS.Cost {
		t.Errorf("Serfer $%.5f not costlier than AMPS $%.5f", r.Serfer.Cost, r.AMPS.Cost)
	}
	// The gap must be explained by the transition overhead.
	gap := r.Serfer.Completion - r.AMPS.Completion
	if gap < r.TransitionTime/2 {
		t.Errorf("completion gap %v smaller than transition time %v", gap, r.TransitionTime)
	}
}

func TestFigure12SmallModelStillWins(t *testing.T) {
	r, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]SettingRun{}
	for _, run := range r.Runs {
		runs[run.Setting] = run
	}
	amps, s1, s2 := runs["AMPS-Inf"], runs["Sage 1"], runs["Sage 2"]
	if amps.Completion >= s1.Completion || amps.Completion >= s2.Completion {
		t.Error("AMPS-Inf not fastest for MobileNet")
	}
	if amps.Cost >= s1.Cost || amps.Cost >= s2.Cost {
		t.Error("AMPS-Inf not cheapest for MobileNet")
	}
	// Paper: AMPS-Inf's MobileNet cost is $0.00019.
	if amps.Cost < 0.0001 || amps.Cost > 0.0003 {
		t.Errorf("AMPS-Inf MobileNet cost $%.5f, paper $0.00019", amps.Cost)
	}
}

func TestTable5BatchComparison(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≥53/66/60% cost savings and ≥7/19/29% faster vs SageMaker.
	for _, row := range r.Rows {
		if saving(row.AMPS.Cost, row.Sage1.Cost) < 0.5 {
			t.Errorf("%s: batch saving vs Sage1 %.1f%%, paper ≥53%%", row.Model, saving(row.AMPS.Cost, row.Sage1.Cost)*100)
		}
		if saving(row.AMPS.Cost, row.Sage2.Cost) < 0.8 {
			t.Errorf("%s: batch saving vs Sage2 too small", row.Model)
		}
		if row.AMPS.Completion >= row.Sage1.Completion {
			t.Errorf("%s: AMPS batch %v not faster than Sage1 %v", row.Model, row.AMPS.Completion, row.Sage1.Completion)
		}
		if row.AMPS.Completion >= row.Sage2.Completion {
			t.Errorf("%s: AMPS batch not faster than Sage2", row.Model)
		}
	}
}

func TestFigure13BatchingComparison(t *testing.T) {
	r, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if r.AMPSSeq.Completion >= r.BATCH.Completion {
		t.Errorf("AMPS-Inf-Seq %v not faster than BATCH %v", r.AMPSSeq.Completion, r.BATCH.Completion)
	}
	if r.AMPSSeq.Cost >= r.BATCH.Cost {
		t.Errorf("AMPS-Inf-Seq $%.5f not cheaper than BATCH $%.5f", r.AMPSSeq.Cost, r.BATCH.Cost)
	}
	if r.AMPSPar.Completion*2 >= r.BATCH.Completion {
		t.Errorf("parallel AMPS %v not ≫ faster than BATCH %v", r.AMPSPar.Completion, r.BATCH.Completion)
	}
}
