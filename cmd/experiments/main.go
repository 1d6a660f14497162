// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated platform and prints them to stdout.
//
// Without -only, everything runs in paper order. With -metrics, a
// sorted-key JSON snapshot of every simulator, coordinator and serving
// metric accumulated across the run is written after the tables; with
// -stream, the windowed NDJSON metrics stream. Each experiment's
// environment deploys and serves on a framework wired to both, so they
// carry its coordinator and serving activity; overload's brownout cell
// keeps its serving windows in a series of its own, the 2 s windows its
// ladder judges. `experiments -h` lists the flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"ampsinf/internal/cli"
	"ampsinf/internal/experiments"
	"ampsinf/internal/obs"
	"ampsinf/internal/prof"
)

// job is one experiment: its -only id and what renders its table.
type job struct {
	id  string
	run func() (*experiments.Table, error)
}

// view runs an experiment and renders one table of its result.
func view[R any](run func() (R, error), table func(R) *experiments.Table) func() (*experiments.Table, error) {
	return func() (*experiments.Table, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return table(r), nil
	}
}

// table views an experiment whose result renders one table.
func table[R interface{ Table() *experiments.Table }](run func() (R, error)) func() (*experiments.Table, error) {
	return view(run, R.Table)
}

// jobs lists the experiments in paper order. The main and baseline
// comparisons each feed several figures and run once.
func jobs() []job {
	mainCmp := sync.OnceValues(experiments.RunMainComparison)
	baseCmp := sync.OnceValues(experiments.RunBaselineComparison)
	return []job{
		{"table1", func() (*experiments.Table, error) { return experiments.Table1().Table(), nil }},
		{"figure1", table(experiments.Figure1)},
		{"table2", table(experiments.Table2)},
		{"figure2", table(experiments.Figure2)},
		{"table3", table(experiments.Table3)},
		{"figure5", view(mainCmp, (*experiments.MainComparison).Figure5)},
		{"figure6", view(mainCmp, (*experiments.MainComparison).Figure6)},
		{"table4", view(mainCmp, (*experiments.MainComparison).Table4)},
		{"figure7", view(mainCmp, (*experiments.MainComparison).Figure7)},
		{"figure8", view(mainCmp, (*experiments.MainComparison).Figure8)},
		{"figure9", view(baseCmp, (*experiments.BaselineComparison).Figure9)},
		{"figure10", view(baseCmp, (*experiments.BaselineComparison).Figure10)},
		{"figure11", table(experiments.Figure11)},
		{"figure12", table(experiments.Figure12)},
		{"table5", table(experiments.Table5)},
		{"figure13", table(experiments.Figure13)},
		{"ablation-scheduling", table(experiments.AblationScheduling)},
		{"ablation-quota", table(experiments.AblationQuota)},
		{"ablation-quantization", table(experiments.AblationQuantization)},
		{"ablation-pressure", table(experiments.AblationPressure)},
		{"ablation-storage", table(experiments.AblationStorage)},
		{"reliability", table(experiments.RunReliability)},
		{"serving-scaling", table(experiments.RunServingScaling)},
		{"resilience", table(experiments.RunResilience)},
		{"pipeline-batch", table(experiments.RunPipelineBatch)},
		{"overload", table(experiments.RunOverload)},
	}
}

func main() {
	f, run := flags()
	err := f.Parse(os.Args[1:])
	if err == nil {
		err = run(os.Stdout)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// flags registers the command's flags and returns the run to start once
// they are parsed, writing the tables (and a "-" export) to w.
func flags() (*cli.Set, func(w io.Writer) error) {
	f := cli.New("experiments")
	only := f.String("only", "", "run a single experiment (e.g. table1, figure9)")
	metricsOut := f.String("metrics", "", `write a metrics snapshot JSON to this file ("-" = stdout)`)
	streamOut := f.String("stream", "", `write the NDJSON metrics window stream to this file ("-" = stdout)`)
	metricsWindow := f.Duration("metrics-window", time.Second, "time-series window width", cli.Above(0),
		cli.With("-stream", func() bool { return *streamOut != "" }))
	cpuProfile := f.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := f.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return f, func(w io.Writer) error {
		stopProf, err := prof.Start(*cpuProfile, *memProfile)
		if err != nil {
			return err
		}
		defer stopProf()
		var mx *obs.Metrics
		if *metricsOut != "" {
			mx = obs.NewMetrics()
			experiments.SetMetrics(mx)
		}
		var series *obs.TimeSeries
		if *streamOut != "" {
			series = obs.NewTimeSeries(*metricsWindow)
			experiments.SetSeries(series)
		}
		ran := 0
		for _, j := range jobs() {
			if *only != "" && !strings.EqualFold(*only, j.id) {
				continue
			}
			t, err := j.run()
			if err != nil {
				return fmt.Errorf("%s: %w", j.id, err)
			}
			fmt.Fprintln(w, t.Render())
			ran++
		}
		if ran == 0 {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		if mx != nil {
			if err := writeOut(w, mx.WriteJSON, *metricsOut); err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		}
		if series != nil {
			series.Close()
			if err := writeOut(w, series.WriteNDJSON, *streamOut); err != nil {
				return fmt.Errorf("stream: %w", err)
			}
		}
		return nil
	}
}

// writeOut writes an export to path, or to w when path is "-".
func writeOut(w io.Writer, write func(io.Writer) error, path string) error {
	if path == "-" {
		return write(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
