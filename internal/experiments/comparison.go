package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"ampsinf/internal/baselines"
	"ampsinf/internal/cloud/stepfn"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/workload"
)

func itoa(v int) string { return strconv.Itoa(v) }

func intsToString(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, "/")
}

// BaselineComparison feeds Figures 9 and 10: AMPS-Inf against the three
// lambda baselines, per model.
type BaselineComparison struct {
	Rows []BaselineRow
}

// BaselineRow is one model's four-way comparison.
type BaselineRow struct {
	Model string
	AMPS  SettingRun
	B1    SettingRun
	B2    SettingRun
	B3    SettingRun
}

// sloPlans plans name twice: Baseline 3's exhaustive cost-optimal plan,
// and AMPS-Inf's under an SLO of SLOFactor × that plan's time.
func sloPlans(name string) (amps, b3 *optimizer.Plan, err error) {
	o, err := optimizerFor(name)
	if err != nil {
		return nil, nil, err
	}
	b3, err = baselines.OptimalPlan(o)
	if err != nil {
		return nil, nil, err
	}
	m, _ := Model(name)
	amps, err = optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(),
		SLO: time.Duration(float64(b3.EstTime) * SLOFactor)})
	return amps, b3, err
}

// RunBaselineComparison executes Figures 9/10 for the three big models.
func RunBaselineComparison() (*BaselineComparison, error) {
	res := &BaselineComparison{}
	for _, name := range bigModels {
		ampsPlan, b3Plan, err := sloPlans(name)
		if err != nil {
			return nil, err
		}
		o, err := optimizerFor(name)
		if err != nil {
			return nil, err
		}
		b1Plan, err := baselines.RandomPlan(o, rand.New(rand.NewSource(2020)))
		if err != nil {
			return nil, err
		}
		b2Plan, err := baselines.GreedyLastLayerPlan(o)
		if err != nil {
			return nil, err
		}

		row := BaselineRow{Model: name}
		type entry struct {
			label string
			plan  *optimizer.Plan
			dst   *SettingRun
		}
		for _, e := range []entry{
			{"AMPS-Inf", ampsPlan, &row.AMPS},
			{"Baseline 1", b1Plan, &row.B1},
			{"Baseline 2", b2Plan, &row.B2},
			{"Baseline 3", b3Plan, &row.B3},
		} {
			cfg := timingOnly(fmt.Sprintf("%s-%s", name, sanitize(e.label)))
			rep, err := NewEnv(nil).runOne(cfg, name, e.plan, coordinator.RunOptions{})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", name, e.label, err)
			}
			*e.dst = SettingRun{Setting: e.label, Completion: rep.Completion, Cost: rep.Cost}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func sanitize(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, " ", ""))
}

// Figure9 renders completion times across the four lambda settings.
func (r *BaselineComparison) Figure9() *Table {
	t := &Table{
		ID:      "Figure 9",
		Title:   "Completion time for serving one image (AMPS-Inf vs baselines)",
		Columns: []string{"Model", "AMPS-Inf (s)", "Baseline 1 (s)", "Baseline 2 (s)", "Baseline 3 (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Model, secs(row.AMPS.Completion), secs(row.B1.Completion),
			secs(row.B2.Completion), secs(row.B3.Completion),
		})
	}
	t.Notes = append(t.Notes, "paper: AMPS-Inf ≈4-9% faster than the cost-optimal Baseline 3")
	return t
}

// Figure10 renders costs across the four lambda settings.
func (r *BaselineComparison) Figure10() *Table {
	t := &Table{
		ID:      "Figure 10",
		Title:   "Total cost for serving one image (AMPS-Inf vs baselines)",
		Columns: []string{"Model", "AMPS-Inf ($)", "Baseline 1 ($)", "Baseline 2 ($)", "Baseline 3 ($)", "AMPS vs B3"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Model, usd(row.AMPS.Cost), usd(row.B1.Cost), usd(row.B2.Cost), usd(row.B3.Cost),
			fmt.Sprintf("+%.1f%%", (ratio(row.AMPS.Cost, row.B3.Cost)-1)*100),
		})
	}
	t.Notes = append(t.Notes, "paper: cost(B3) ≤ cost(AMPS-Inf) ≤ cost(B1) < cost(B2); AMPS-Inf within ≈9-14% of B3")
	return t
}

// Figure11Result reproduces Fig 11: Serfer vs AMPS-Inf on ResNet50 with
// identical partitioning and configuration.
type Figure11Result struct {
	AMPS           SettingRun
	Serfer         SettingRun
	TransitionTime time.Duration
	Transitions    int
}

// Figure11 runs the Serfer comparison.
func Figure11() (*Figure11Result, error) {
	name := "resnet50"
	m, w := Model(name)
	env := NewEnv(nil)
	plan, _, err := sloPlans(name)
	if err != nil {
		return nil, err
	}
	svc, err := env.Deploy(m, w, plan, timingOnly("fig11"))
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	dep := svc.Deployment()

	// Both systems run the strictly sequential schedule here: the point of
	// Fig 11 is the Step Functions overhead under identical orchestration
	// semantics, partitioning and configuration.
	img := workload.Image(m, 1)
	ampsRep, err := dep.Run(img, coordinator.RunOptions{Sequential: true})
	if err != nil {
		return nil, err
	}
	svc.ColdStart()
	engine := stepfn.NewEngine(env.Platform(), env.Meter())
	engine.Metrics = currentMetrics()
	serferRep, err := baselines.RunSerfer(engine, dep, env.Store(), img)
	if err != nil {
		return nil, err
	}
	return &Figure11Result{
		AMPS:           SettingRun{Setting: "AMPS-Inf", Completion: ampsRep.Completion, Cost: ampsRep.Cost},
		Serfer:         SettingRun{Setting: "Serfer", Completion: serferRep.Completion, Cost: serferRep.Cost},
		TransitionTime: serferRep.TransitionTime,
		Transitions:    serferRep.Transitions,
	}, nil
}

// Table renders the comparison.
func (r *Figure11Result) Table() *Table {
	t := &Table{
		ID:      "Figure 11",
		Title:   "ResNet50 inference (one image): Serfer vs AMPS-Inf (same partitioning)",
		Columns: []string{"Setting", "Time (s)", "Cost ($)"},
	}
	t.Rows = append(t.Rows, []string{r.AMPS.Setting, secs(r.AMPS.Completion), usd(r.AMPS.Cost)})
	t.Rows = append(t.Rows, []string{r.Serfer.Setting, secs(r.Serfer.Completion), usd(r.Serfer.Cost)})
	t.Notes = append(t.Notes, fmt.Sprintf("Serfer spent %s in %d Step Functions transitions (the paper's footnote-2 overhead)",
		secs(r.TransitionTime), r.Transitions))
	return t
}
