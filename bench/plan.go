package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
)

// planCase is one planning problem of the plan_zoo round. Its name is
// "<model>-q20" (the paper's 2020 quota, automatic stride), "-q21s1"
// (pricing.Quota2021 searched at 1 MB stride, ~10k memory blocks) or
// "tinycnn-bnb" (memory selection through the QCR+BnB MIQP solver,
// cost only).
type planCase struct {
	name  string
	model *nn.Model
	quota pricing.Quota
	req   optimizer.Request
	bnb   bool
}

// setupPlan builds the round's models and requests. Each SLO is a
// seed-drawn fraction in [0.98, 0.99] of the case's cost-optimal
// response time, so Optimize has to bisect the Lagrange multiplier; that
// costs one cost-only plan per case, which doubles as the warm-up. The
// band is narrow because the fastest feasible plan is close: bertbase
// cannot go below 0.942 of its cost-optimal time, xception not below
// 0.862, and bertbase's plan already costs 2.8x more at 0.95.
func setupPlan(seed int64, quick bool) ([]*planCase, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "plan-slo")))
	models := map[string]*nn.Model{}
	var cases []*planCase
	for _, name := range planCaseNames {
		model, kind, _ := strings.Cut(name, "-")
		if quick {
			model = "tinycnn"
		}
		m := models[model]
		if m == nil {
			var err error
			if m, err = zoo.Build(model, 0); err != nil {
				return nil, err
			}
			models[model] = m
		}
		c := &planCase{name: name, model: m, quota: pricing.Quota2020(), bnb: kind == "bnb"}
		stride := 0
		if kind == "q21s1" {
			c.quota, stride = pricing.Quota2021(), 1
		}
		// The request core.Submit builds, field for field.
		c.req = optimizer.Request{
			Model: m, Perf: perf.Default(), Quota: &c.quota,
			SearchStrideMB: stride, UseBnB: c.bnb,
		}
		frac := 0.98 + 0.01*rng.Float64()
		if !c.bnb {
			o, err := optimizer.New(c.req)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			base, err := o.OptimizeCostOnly()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			c.req.SLO = time.Duration(frac * float64(base.EstTime))
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// planTiming is one planned case: wall-clock of the three calls
// core.Submit makes, the bytes New allocated, and the plan.
type planTiming struct {
	newS, optS, coplanS float64
	newAllocMB, allocMB float64
	plan                *optimizer.Plan
	render              string
}

func (t planTiming) totalS() float64 { return t.newS + t.optS + t.coplanS }

// planOne plans one case exactly as core.Submit does: New, Optimize
// (OptimizeCostOnly for the BnB case), CoPlanBatch probing up to 8.
func planOne(c *planCase, rec *recorder) (planTiming, error) {
	var t planTiming
	a0 := totalAlloc()
	t0 := time.Now()
	id := rec.begin("optimizer.New")
	o, err := optimizer.New(c.req)
	rec.end(id)
	if err != nil {
		return t, err
	}
	t1 := time.Now()
	a1 := totalAlloc()
	id = rec.begin("optimizer.Optimize")
	if c.bnb {
		t.plan, err = o.OptimizeCostOnly()
	} else {
		t.plan, err = o.Optimize()
	}
	rec.end(id)
	if err != nil {
		return t, err
	}
	t2 := time.Now()
	id = rec.begin("optimizer.CoPlanBatch")
	bp, err := o.CoPlanBatch(t.plan, 8)
	rec.end(id)
	if err != nil {
		return t, err
	}
	t3 := time.Now()
	t.newS, t.optS, t.coplanS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	t.newAllocMB, t.allocMB = mb(a1-a0), mb(totalAlloc()-a0)
	t.render = fmt.Sprintf("%s bounds=%v mem=%v time=%d cost=%.17g lambda=%.17g slo=%v batch=%d/%d\n",
		c.name, t.plan.Bounds(), t.plan.Memories(), t.plan.EstTime, t.plan.EstCost,
		t.plan.LagrangeMultiplier, t.plan.MeetsSLO, bp.Chosen, len(bp.Options))
	return t, nil
}

// checkPlan re-derives feasibility from the model's layers, without the
// optimizer's profiler: contiguous cover, package within the deployment
// limit (constraint 4), /tmp within 512 MB (5), memory on the quota grid
// (7), and the plan's response time within the SLO.
func checkPlan(c *planCase, p *optimizer.Plan) error {
	if len(p.Lambdas) == 0 {
		return fmt.Errorf("empty plan")
	}
	pf := perf.Default()
	next := 1
	var estTime time.Duration
	for i, lp := range p.Lambdas {
		if lp.LayerLo != next || lp.LayerHi <= lp.LayerLo {
			return fmt.Errorf("lambda %d covers [%d,%d), want start %d", i, lp.LayerLo, lp.LayerHi, next)
		}
		next = lp.LayerHi
		var weights, peak int64
		for _, l := range c.model.Layers[lp.LayerLo:lp.LayerHi] {
			weights += l.ParamCount * 4
			if b := l.ActivationBytes(); b > peak {
				peak = b
			}
		}
		in := c.model.Layers[lp.LayerLo-1].ActivationBytes()
		const descBytes, handlerBytes = 256 << 10, 1 << 20
		if pkg := weights + descBytes + handlerBytes + int64(pf.DepsMB*(1<<20)); pkg > int64(c.quota.DeployLimitMB)<<20 {
			return fmt.Errorf("lambda %d package %d B over the %d MB deployment limit", i, pkg, c.quota.DeployLimitMB)
		}
		if tmp := weights + in + peak; tmp > int64(c.quota.TmpLimitMB)<<20 {
			return fmt.Errorf("lambda %d /tmp %d B over %d MB", i, tmp, c.quota.TmpLimitMB)
		}
		if !c.quota.ValidMemory(lp.MemoryMB) {
			return fmt.Errorf("lambda %d memory %d MB is off the quota grid", i, lp.MemoryMB)
		}
		estTime += lp.EstTime
	}
	if next != len(c.model.Layers) {
		return fmt.Errorf("plan ends at layer %d of %d", next, len(c.model.Layers))
	}
	if estTime != p.EstTime {
		return fmt.Errorf("EstTime %v is not the sum of its lambdas %v", p.EstTime, estTime)
	}
	if c.req.SLO > 0 && (p.EstTime > c.req.SLO || !p.MeetsSLO) {
		return fmt.Errorf("EstTime %v misses SLO %v", p.EstTime, c.req.SLO)
	}
	return nil
}

// runPlanZoo times rounds of the eight cases until the budget is spent.
// With tracing on, rounds alternate untraced and traced, and the
// per-call split of the traced rounds feeds the planner layer metrics.
func runPlanZoo(rc *runCtx) error {
	var cases []*planCase
	if err := rc.setup(3, func() (err error) { cases, err = setupPlan(rc.seed, rc.quick); return }); err != nil {
		return err
	}
	// Per case, the samples of each timed part, keyed by part.
	plain, traced := newCaseSamples(len(cases)), newCaseSamples(len(cases))
	var digest digestCheck
	var usd, resp, roundS []float64
	start := time.Now()
	for round := 0; rc.more(start, round, 2); round++ {
		into, rec := plain, (*recorder)(nil)
		if rc.trace && round%2 == 1 {
			into, rec = traced, rc.rec
		}
		rec.setUnit(round)
		rid := rec.begin("round")
		var render strings.Builder
		var roundSum float64
		usd, resp = usd[:0], resp[:0]
		for i, c := range cases {
			rc.attempted++
			t, err := planOne(c, rec)
			if err == nil {
				err = checkPlan(c, t.plan)
			}
			if err != nil {
				rc.fail("plan %s: %v", c.name, err)
				continue
			}
			for part, v := range map[string]float64{
				"total": t.totalS(), "new": t.newS, "optimize": t.optS, "coplan": t.coplanS,
				"newAllocMB": t.newAllocMB, "allocMB": t.allocMB,
			} {
				into[i][part] = append(into[i][part], v)
			}
			render.WriteString(t.render)
			roundSum += t.totalS()
			usd, resp = append(usd, t.plan.EstCost), append(resp, t.plan.EstTime.Seconds())
		}
		rec.end(rid)
		digest.add(rc, round, "plans", render.String())
		if rec == nil {
			roundS = append(roundS, roundSum)
		}
	}
	rc.timed = time.Since(start)
	rc.units["rounds"] = len(plain[0]["total"]) + len(traced[0]["total"])
	rc.digest = digest.sum()
	if len(usd) != len(cases) {
		return fmt.Errorf("last round planned %d of %d cases: %v", len(usd), len(cases), rc.failures)
	}

	if !rc.trace {
		e := rc.e2e
		perCase := make([][]float64, len(plain))
		for i := range plain {
			perCase[i] = plain[i]["total"]
		}
		e.setFrom("ops_per_s", 1/geomean(plain.medians("total")), perCase...)
		e.set("alloc_mb_per_unit", sum(plain.medians("allocMB")))
		e.set("sim_usd_per_op", mean(usd))
		e.set("sim_resp_s", mean(resp))
		e.set("sim_goodput_rps", float64(len(resp))/sum(resp))
		rc.printTiming("round", roundS)
		return nil
	}
	l := rc.layer
	for i, c := range cases {
		l.setMedian("plan."+c.name+"_ms", plain[i]["total"], 1e3)
	}
	l.set("optimizer.new_ms", 1e3*sum(traced.medians("new")))
	l.set("optimizer.optimize_ms", 1e3*sum(traced.medians("optimize")))
	l.set("optimizer.coplan_ms", 1e3*sum(traced.medians("coplan")))
	l.set("optimizer.new_alloc_mb", sum(traced.medians("newAllocMB")))
	l.setMedian("miqp.bnb_costonly_ms", traced[len(cases)-1]["optimize"], 1e3)
	l.set("trace.overhead_pct", overheadPct(sum(plain.medians("total")), sum(traced.medians("total"))))
	return nil
}

// caseSamples holds, per planning case, the samples of each timed part.
type caseSamples []map[string][]float64

func newCaseSamples(n int) caseSamples {
	cs := make(caseSamples, n)
	for i := range cs {
		cs[i] = map[string][]float64{}
	}
	return cs
}

// medians returns one part's median per case.
func (cs caseSamples) medians(part string) []float64 {
	out := make([]float64, len(cs))
	for i := range cs {
		out[i] = median(cs[i][part])
	}
	return out
}
