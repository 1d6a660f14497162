package experiments

import (
	"time"

	"ampsinf/internal/core"
	"ampsinf/internal/workload"
)

// bigModels are the three large models of the main evaluation.
var bigModels = []string{"resnet50", "inceptionv3", "xception"}

// ampsRun serves one cold image through a freshly submitted AMPS-Inf
// service and returns the report plus the Fig 5/6 breakdown.
type ampsRun struct {
	Completion    time.Duration
	Cost          float64
	Load, Predict time.Duration
	Partitions    int
	Memories      []int
}

func runAMPSOnce(env *Env, name string) (*ampsRun, error) {
	svc, err := submitAMPS(env, name)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	m, _ := Model(name)
	rep, err := svc.Infer(workload.Image(m, 1))
	if err != nil {
		return nil, err
	}
	load, predict := core.Breakdown(rep)
	return &ampsRun{
		Completion: rep.Completion,
		Cost:       rep.Cost,
		Load:       load,
		Predict:    predict,
		Partitions: svc.Partitions(),
		Memories:   svc.Plan.Memories(),
	}, nil
}

// MainComparison runs the Sec. 5.2 evaluation once per model and feeds
// Figures 5–8 and Table 4 (they share the same measurements).
type MainComparison struct {
	Rows []MainRow
}

// MainRow is one model's AMPS-Inf vs SageMaker measurements.
type MainRow struct {
	Model string

	AMPSCompletion time.Duration
	AMPSCost       float64
	AMPSLoad       time.Duration
	AMPSPredict    time.Duration
	AMPSPartitions int
	AMPSMemories   []int

	Sage1Completion time.Duration
	Sage1Cost       float64
	Sage1Load       time.Duration
	Sage1Predict    time.Duration

	Sage2Completion    time.Duration
	Sage2Cost          float64
	Sage2Load          time.Duration
	Sage2DeployPredict time.Duration
}

// RunMainComparison executes the Sec. 5.2 comparison for the three big
// models.
func RunMainComparison() (*MainComparison, error) {
	res := &MainComparison{}
	for _, name := range bigModels {
		env := NewEnv(nil)
		amps, err := runAMPSOnce(env, name)
		if err != nil {
			return nil, err
		}
		s1 := env.Sage.ServeNotebook(sageJob(name, 1))
		s2 := env.Sage.ServeHosted(sageJob(name, 1))
		res.Rows = append(res.Rows, MainRow{
			Model:          name,
			AMPSCompletion: amps.Completion, AMPSCost: amps.Cost,
			AMPSLoad: amps.Load, AMPSPredict: amps.Predict,
			AMPSPartitions: amps.Partitions, AMPSMemories: amps.Memories,
			Sage1Completion: s1.Completion, Sage1Cost: s1.Cost,
			Sage1Load: s1.Load, Sage1Predict: s1.Predict,
			Sage2Completion: s2.Completion, Sage2Cost: s2.Cost,
			Sage2Load:          s2.Load,
			Sage2DeployPredict: s2.Deploy + s2.Load + s2.Predict,
		})
	}
	return res, nil
}

// Figure5 renders model+weights loading times (AMPS-Inf sums over its
// lambdas).
func (r *MainComparison) Figure5() *Table {
	t := &Table{
		ID:      "Figure 5",
		Title:   "Time for loading model and weights",
		Columns: []string{"Model", "AMPS-Inf (s)", "Sage 1 (s)", "Sage 2 (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Model, secs(row.AMPSLoad), secs(row.Sage1Load), secs(row.Sage2Load)})
	}
	t.Notes = append(t.Notes, "paper: Sage 2 loads from S3 and is slowest; AMPS-Inf's summed partition loads are smallest")
	return t
}

// Figure6 renders prediction times (AMPS-Inf vs Sage 1; Sage 2's
// prediction alone is not practically measurable, per the paper).
func (r *MainComparison) Figure6() *Table {
	t := &Table{
		ID:      "Figure 6",
		Title:   "Time for prediction (one image request)",
		Columns: []string{"Model", "AMPS-Inf (s)", "Sage 1 (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Model, secs(row.AMPSPredict), secs(row.Sage1Predict)})
	}
	return t
}

// Table4 renders Sage 2's deployment + prediction time.
func (r *MainComparison) Table4() *Table {
	t := &Table{
		ID:      "Table 4",
		Title:   "Overall time for deployment and prediction in Sage 2",
		Columns: []string{"Model", "Deployment+Prediction (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Model, secs(row.Sage2DeployPredict)})
	}
	t.Notes = append(t.Notes, "paper: 463.5 / 462.3 / 401.8 s (ResNet50 / Inception-V3 / Xception)")
	return t
}

// Figure7 renders end-to-end completion times.
func (r *MainComparison) Figure7() *Table {
	t := &Table{
		ID:      "Figure 7",
		Title:   "Completion time for serving one image (AMPS-Inf vs SageMaker)",
		Columns: []string{"Model", "AMPS-Inf (s)", "Sage 1 (s)", "Sage 2 (s)", "Partitions", "Memories (MB)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Model, secs(row.AMPSCompletion), secs(row.Sage1Completion), secs(row.Sage2Completion),
			itoa(row.AMPSPartitions), intsToString(row.AMPSMemories),
		})
	}
	t.Notes = append(t.Notes, "paper: AMPS-Inf fastest for all three models")
	return t
}

// Figure8 renders total serving costs with the paper's headline savings.
func (r *MainComparison) Figure8() *Table {
	t := &Table{
		ID:      "Figure 8",
		Title:   "Total cost for serving one image (AMPS-Inf vs SageMaker)",
		Columns: []string{"Model", "AMPS-Inf ($)", "Sage 1 ($)", "Sage 2 ($)", "Saving vs Sage1", "Saving vs Sage2"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Model, usd(row.AMPSCost), usdTight(row.Sage1Cost), usdTight(row.Sage2Cost),
			pct(saving(row.AMPSCost, row.Sage1Cost)), pct(saving(row.AMPSCost, row.Sage2Cost)),
		})
	}
	t.Notes = append(t.Notes, "paper: 92.85/98.67/96.29% vs Sage1; 98.18/99.33/98.02% vs Sage2")
	return t
}
