package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck applies the benchmark's own acceptance rule to the build it is
// part of: two sets of runs, each of `runs` end-to-end runs per workload on
// seeds 1..runs plus one traced run. For every workload and end-to-end
// metric the spread of each set (the inter-quartile distance of its runs
// over their median) must stay within the metric's bound, setup_s excepted,
// and the second set's median may not be worse than the first's by more
// than the bound. Each run is a child process, as the driver's are.
func selfCheck(host hostStamp, benchFile string, seconds float64, runs int, only string) (bool, error) {
	bf, err := readBenchmarkFile(benchFile)
	if err != nil {
		return false, err
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	fmt.Printf("# host: %s\n# selfcheck: 2 sets x %d runs x %g s per workload\n", host, runs, seconds)

	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
		for _, wl := range bf.Workloads {
			if only != "" && wl.Name != only {
				continue
			}
			for r := 0; r < runs; r++ {
				line, err := childRun(self, wl.Name, int64(r+1), seconds, traceOff)
				if err != nil {
					return false, err
				}
				if !line.Correct || line.Failed != 0 {
					return false, fmt.Errorf("%s seed %d: %d of %d laps failed", wl.Name, r+1, line.Failed, line.Attempted)
				}
				for name, mv := range line.Metrics {
					k := key{wl.Name, name}
					sets[s][k] = append(sets[s][k], mv.Value)
				}
			}
			layers, err := childRun(self, wl.Name, 1, seconds, traceOn)
			if err != nil {
				return false, err
			}
			fmt.Printf("set %d %-14s host.cal_ms %.4f  wall.iqr_pct %.2f  wall.laps %.0f\n", s+1, wl.Name,
				layers.Metrics["host.cal_ms"].Value, layers.Metrics["wall.iqr_pct"].Value, layers.Metrics["wall.laps"].Value)
		}
	}

	ok := true
	fmt.Printf("%-14s %-26s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "diff%", "spread1%", "spread2%", "bound%")
	for _, wl := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			k := key{wl.Name, spec.Name}
			a, b := sets[0][k], sets[1][k]
			if len(a) == 0 {
				continue
			}
			m1, s1 := medianAndSpread(a)
			m2, s2 := medianAndSpread(b)
			worse := (m2 - m1) / m1
			if spec.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > spec.Bound {
				verdict = "  MEDIAN MOVED"
				ok = false
			}
			if spec.Name != "setup_s" && (s1 > spec.Bound || s2 > spec.Bound) {
				verdict += "  SPREAD"
				ok = false
			}
			fmt.Printf("%-14s %-26s %14.5f %14.5f %+8.2f %8.2f %8.2f %6.1f%s\n",
				wl.Name, spec.Name, m1, m2, 100*worse, 100*s1, 100*s2, 100*spec.Bound, verdict)
		}
	}
	return ok, nil
}

// childRun runs this binary once and parses the result line.
func childRun(self, workload string, seed int64, seconds float64, trace int) (*resultLine, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &line, nil
}

// medianAndSpread returns the median of the values and their inter-quartile
// distance as a share of it. The quartiles are the ones Python's
// statistics.quantiles(values, n=4) gives, which the driver uses.
func medianAndSpread(values []float64) (median, spread float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) < 2 {
		return v[0], 0
	}
	q := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		delta := i*m - j*n
		return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	median = q(2)
	if median == 0 {
		return 0, 0
	}
	return median, (q(3) - q(1)) / median
}
