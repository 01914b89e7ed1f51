package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the acceptance pipeline computes. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runChild runs this binary once as the driver would and parses the
// last line of its output.
func runChild(workload string, seed uint64, seconds float64) (jsonResult, error) {
	var res jsonResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-quiet")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// calibrate repeats what the acceptance pipeline does: two sets of n
// runs per workload, every run a fresh process with its own seed. For
// each end-to-end metric it prints both sets' median, their spread
// (interquartile range over median) and how much worse the second
// median is than the first, and marks what exceeds the metric's bound
// (!!) or a third of it (!), the margin the benchmark is built to keep.
func calibrate(w io.Writer, specs []spec, n int, seed uint64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("calibration needs at least 2 runs per set")
	}
	over := 0
	fmt.Fprintf(w, "Two sets of %d runs per workload, seeds %d..%d, -seconds %g, one process per run.\n\n", n, seed, seed+uint64(n)-1, seconds)
	for _, s := range specs {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := runChild(s.name, seed+uint64(i), seconds)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Fprintf(w, "%s\n\n", s.name)
		fmt.Fprintf(w, "| metric | unit | min | median A | median B | max | spread A | spread B | B worse than A | bound | |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			all := append(append([]float64(nil), a...), b...)
			sort.Float64s(all)
			medA, medB := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			spread := func(v []float64, med float64) float64 {
				q1, q3 := quartiles(v)
				return (q3 - q1) / med
			}
			spA, spB := spread(a, medA), spread(b, medB)
			worse := (medB - medA) / medA
			if d.better == "higher" {
				worse = -worse
			}
			mark := ""
			switch {
			case worse > d.bound || (d.name != "setup_s" && max(spA, spB) > d.bound):
				mark = "!!"
				over++
			case worse > d.bound/3 || (d.name != "setup_s" && max(spA, spB) > d.bound/3):
				mark = "!"
			}
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %.5g | %.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				d.name, d.unit, all[0], medA, medB, all[len(all)-1], 100*spA, 100*spB, 100*worse, 100*d.bound, mark)
		}
		fmt.Fprintln(w)
	}
	if over > 0 {
		return fmt.Errorf("%d metric/workload pairs exceed their bound", over)
	}
	return nil
}
