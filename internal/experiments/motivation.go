package experiments

import (
	"fmt"
	"sync"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/workload"
)

// Table1Result reproduces Table 1: model and deployment sizes.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one model's size accounting.
type Table1Row struct {
	Model       string
	ModelBytes  int64
	DeployBytes int64 // model + 169 MB dependency bundle
	FitsLambda  bool
}

// Table1 computes model and deployment sizes for the paper's models. The
// sizes need only the layer graphs, so it initialises no weights (vgg16's
// and bertbase's alone are ~1 GB, and no other experiment runs them).
func Table1() *Table1Result {
	deps := int64(perf.Default().DepsMB * (1 << 20))
	limit := int64(pricing.LambdaDeployLimitMB) << 20
	res := &Table1Result{}
	for _, name := range []string{"resnet50", "inceptionv3", "xception", "mobilenet", "vgg16", "bertbase"} {
		m, err := zoo.Build(name, 0)
		if err != nil {
			panic(err)
		}
		deploy := m.WeightBytes() + deps
		res.Rows = append(res.Rows, Table1Row{
			Model: name, ModelBytes: m.WeightBytes(), DeployBytes: deploy,
			FitsLambda: deploy <= limit,
		})
	}
	return res
}

// Table renders the result.
func (r *Table1Result) Table() *Table {
	t := &Table{
		ID:      "Table 1",
		Title:   "Model and deployment sizes (deployment includes the 169 MB dependencies)",
		Columns: []string{"Model", "Model Size (MB)", "Deployment Size (MB)", "Fits one lambda"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Model, mb(row.ModelBytes), mb(row.DeployBytes), fmt.Sprintf("%v", row.FitsLambda),
		})
	}
	t.Notes = append(t.Notes, "paper: ResNet50 98 MB / 267 MB, InceptionV3 92 MB / 261 MB")
	return t
}

// MemorySweepPoint is one (memory block, completion, cost) sample.
type MemorySweepPoint struct {
	MemoryMB   int
	Completion time.Duration
	Cost       float64
}

// Figure1Result reproduces Fig 1: MobileNet single-image serving time and
// cost across every allocatable memory block.
type Figure1Result struct {
	Points []MemorySweepPoint
	// CheapestMB is the block with the minimum cost.
	CheapestMB int
}

// optimizerCache holds one Optimizer per model: its span tables are
// deterministic and reused across sweeps.
var (
	optMu    sync.Mutex
	optCache = map[string]*optimizer.Optimizer{}
)

func optimizerFor(name string) (*optimizer.Optimizer, error) {
	optMu.Lock()
	defer optMu.Unlock()
	if o, ok := optCache[name]; ok {
		return o, nil
	}
	m, _ := Model(name)
	o, err := optimizer.New(optimizer.Request{Model: m, Perf: perf.Default()})
	if err != nil {
		return nil, err
	}
	optCache[name] = o
	return o, nil
}

// singleLambdaRun deploys a model on one lambda at memMB and serves one
// image cold, returning completion and the job's marginal cost.
func singleLambdaRun(env *Env, name string, memMB int) (MemorySweepPoint, error) {
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return MemorySweepPoint{}, err
	}
	S := len(o.Segments())
	plan, err := o.PlanForConfig([]int{0, S}, []int{memMB})
	if err != nil {
		return MemorySweepPoint{}, err
	}
	dep, err := coordinator.Deploy(coordinator.Config{
		Platform: env.Platform, Store: env.Store,
		NamePrefix: fmt.Sprintf("sweep-%s-%d", name, memMB), SkipCompute: true,
	}, m, w, plan)
	if err != nil {
		return MemorySweepPoint{}, err
	}
	defer dep.Teardown()
	rep, err := dep.RunEager(workload.Image(m, 1))
	if err != nil {
		return MemorySweepPoint{}, err
	}
	return MemorySweepPoint{MemoryMB: memMB, Completion: rep.Completion, Cost: rep.Cost}, nil
}

// Figure1 sweeps MobileNet across all feasible 2020 memory blocks.
func Figure1() (*Figure1Result, error) {
	env := NewEnv()
	res := &Figure1Result{}
	bestCost := 0.0
	for _, memMB := range pricing.MemoryBlocks() {
		pt, err := singleLambdaRun(env, "mobilenet", memMB)
		if err != nil {
			// Blocks below the working-set floor are infeasible — the
			// paper's x-axis starts at 256 MB for the same reason.
			continue
		}
		res.Points = append(res.Points, pt)
		if res.CheapestMB == 0 || pt.Cost < bestCost {
			res.CheapestMB, bestCost = memMB, pt.Cost
		}
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("experiments: no feasible memory block for mobilenet")
	}
	return res, nil
}

// Table renders the sweep.
func (r *Figure1Result) Table() *Table {
	t := &Table{
		ID:      "Figure 1",
		Title:   "MobileNet one-image completion time and cost vs memory block",
		Columns: []string{"Memory (MB)", "Time (s)", "Cost ($)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{fmt.Sprint(p.MemoryMB), secs(p.Completion), usd(p.Cost)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cheapest block: %d MB (paper: completion decreases then saturates; cost is U-shaped)", r.CheapestMB))
	return t
}

// Table2Result reproduces Table 2: the five named memory configurations.
type Table2Result struct {
	Points []MemorySweepPoint
}

// Table2 serves MobileNet at the paper's five memory settings.
func Table2() (*Table2Result, error) {
	env := NewEnv()
	res := &Table2Result{}
	for _, memMB := range []int{512, 1024, 1536, 2048, 3008} {
		pt, err := singleLambdaRun(env, "mobilenet", memMB)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Table renders the result.
func (r *Table2Result) Table() *Table {
	t := &Table{
		ID:      "Table 2",
		Title:   "MobileNet serving (one image) at the paper's memory settings",
		Columns: []string{"Memory (MB)", "Time (s)", "Cost ($)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{fmt.Sprint(p.MemoryMB), secs(p.Completion), usd(p.Cost)})
	}
	t.Notes = append(t.Notes, "paper: 22.03/10.65/7.52/6.38/6.32 s; $0.00018/0.00017/0.00019/0.00021/0.00031 (min cost at 1024 MB)")
	return t
}

// SettingRun is one (setting, completion, cost) measurement.
type SettingRun struct {
	Setting    string
	Completion time.Duration
	Cost       float64
}

// Figure2Result reproduces Fig 2: MobileNet on Lambda (512 MB) vs the two
// SageMaker settings.
type Figure2Result struct {
	Runs []SettingRun
}

// Figure2 compares single-lambda serving with SageMaker.
func Figure2() (*Figure2Result, error) {
	env := NewEnv()
	res := &Figure2Result{}
	pt, err := singleLambdaRun(env, "mobilenet", 512)
	if err != nil {
		return nil, err
	}
	res.Runs = append(res.Runs, SettingRun{"Lambda 512MB", pt.Completion, pt.Cost})
	s1 := env.Sage.ServeNotebook(sageJob("mobilenet", 1))
	res.Runs = append(res.Runs, SettingRun{"Sage 1", s1.Completion, s1.Cost})
	s2 := env.Sage.ServeHosted(sageJob("mobilenet", 1))
	res.Runs = append(res.Runs, SettingRun{"Sage 2", s2.Completion, s2.Cost})
	return res, nil
}

// Table renders the comparison.
func (r *Figure2Result) Table() *Table {
	t := &Table{
		ID:      "Figure 2",
		Title:   "MobileNet serving (one image): Lambda vs SageMaker settings",
		Columns: []string{"Setting", "Time (s)", "Cost ($)"},
	}
	for _, run := range r.Runs {
		t.Rows = append(t.Rows, []string{run.Setting, secs(run.Completion), usd(run.Cost)})
	}
	t.Notes = append(t.Notes, "paper: Lambda cost $0.00018, minimal among the three; Sage 2 slowest")
	return t
}

// Table3Result reproduces Table 3: ResNet50 split across ten lambdas
// (uniform memory) vs SageMaker.
type Table3Result struct {
	Runs []SettingRun
}

// tenWaySplit builds a 10-partition configuration with roughly equal
// weight per partition (the motivating experiment's "randomly
// partitioned across ten lambdas").
func tenWaySplit(o *optimizer.Optimizer, k int) []int {
	segs := o.Segments()
	var total int64
	for _, s := range segs {
		total += s.WeightBytes()
	}
	bounds := []int{0}
	var acc int64
	for i, s := range segs {
		acc += s.WeightBytes()
		if len(bounds) < k && acc >= total*int64(len(bounds))/int64(k) && i+1 < len(segs) {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, len(segs))
}

// Table3 measures the motivating ResNet50 comparison.
func Table3() (*Table3Result, error) {
	env := NewEnv()
	res := &Table3Result{}
	s1 := env.Sage.ServeNotebook(sageJob("resnet50", 1))
	res.Runs = append(res.Runs, SettingRun{"Sage 1", s1.Completion, s1.Cost})
	s2 := env.Sage.ServeHosted(sageJob("resnet50", 1))
	res.Runs = append(res.Runs, SettingRun{"Sage 2", s2.Completion, s2.Cost})

	m, w := Model("resnet50")
	o, err := optimizerFor("resnet50")
	if err != nil {
		return nil, err
	}
	bounds := tenWaySplit(o, 10)
	for _, memMB := range []int{512, 1024} {
		mems := make([]int, len(bounds)-1)
		for i := range mems {
			mems[i] = memMB
		}
		plan, err := o.PlanForConfig(bounds, mems)
		if err != nil {
			return nil, fmt.Errorf("experiments: table 3 split at %d MB: %w", memMB, err)
		}
		dep, err := coordinator.Deploy(coordinator.Config{
			Platform: env.Platform, Store: env.Store,
			NamePrefix: fmt.Sprintf("t3-%d", memMB), SkipCompute: true,
		}, m, w, plan)
		if err != nil {
			return nil, err
		}
		rep, err := dep.RunEager(workload.Image(m, 1))
		dep.Teardown()
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, SettingRun{
			fmt.Sprintf("Lam. %dMB ×%d", memMB, len(mems)), rep.Completion, rep.Cost,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Table3Result) Table() *Table {
	t := &Table{
		ID:      "Table 3",
		Title:   "ResNet50 serving (one image): SageMaker vs ten-lambda split",
		Columns: []string{"Setting", "Time (s)", "Cost ($)"},
	}
	for _, run := range r.Runs {
		t.Rows = append(t.Rows, []string{run.Setting, secs(run.Completion), usdTight(run.Cost)})
	}
	t.Notes = append(t.Notes, "paper: Sage1 33.3s/$0.014, Sage2 484.5s/$0.056, Lam512 47.1s/$0.0017, Lam1024 21.8s/$0.0011")
	return t
}
