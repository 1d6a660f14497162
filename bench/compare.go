package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*fullResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict compares B against the base A for one end-to-end metric.
// Exact metrics must repeat digit for digit when both runs share a seed.
// For the others, a difference within the bound is "same" — unless the
// quartile spread of either side's own unit samples is wider than the
// bound, which makes it "unresolved" — and one beyond it is "better" or
// "worse".
func verdict(d metricDef, a, b value, sameSeed bool) (ratio float64, v string) {
	ratio = b.Value / a.Value
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	bound := d.Bound
	if d.Exact && sameSeed {
		bound = 0
	}
	switch {
	case worse > bound:
		return ratio, "worse"
	case -worse > bound:
		return ratio, "better"
	case a.Spread > bound || b.Spread > bound:
		return ratio, "unresolved"
	}
	return ratio, "same"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails on any "worse", or on sim digests that differ at one seed.
func compareFiles(pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Provenance.Seed == b.Provenance.Seed
	fmt.Printf("A (base) %s commit %s seed %d\nB        %s commit %s seed %d\n",
		pathA, a.Provenance.Commit, a.Provenance.Seed, pathB, b.Provenance.Commit, b.Provenance.Seed)
	fmt.Printf("%-14s %-20s %14s %14s %10s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name]["end_to_end"], b.Workloads[wl.name]["end_to_end"]
		if ra == nil || rb == nil {
			return fmt.Errorf("%s: missing from one of the files", wl.name)
		}
		for _, d := range endToEnd {
			ratio, v := verdict(d, ra.Metrics[d.Name], rb.Metrics[d.Name], sameSeed)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %10.4f %7.3f  %s\n", wl.name, d.Name,
				ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value, ratio, d.Bound, v)
		}
		if sameSeed && ra.Digest != rb.Digest {
			bad++
			fmt.Printf("%-14s sim digest differs at one seed: %.12s vs %.12s\n", wl.name, ra.Digest, rb.Digest)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or changed the simulation", bad)
	}
	return nil
}
