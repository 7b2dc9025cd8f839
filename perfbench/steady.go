package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs the workload (every workload when none is named) n
// times as child processes, with seeds 1..n, and prints for every
// metric its median, quartiles and relative spread — the distance
// between the quartiles as a share of the median — and the share of
// failed operations of each run.
func runSteady(cfg config, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloads
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var failShares []string
		for seed := 1; seed <= n; seed++ {
			args := []string{"--workload", w, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)}
			if cfg.bin != "" {
				args = append(args, "-bin", cfg.bin)
			}
			if cfg.work != "" {
				args = append(args, "-work", cfg.work)
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines {
				if strings.HasPrefix(l, "load:") {
					fmt.Printf("%s seed %d %s\n", w, seed, l)
				}
				// The descriptive figures printed above the result line.
				if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
					if v, err := strconv.ParseFloat(f[2], 64); err == nil {
						values[f[1]] = append(values[f[1]], v)
						units[f[1]] = f[3]
					}
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect:\n%s", w, seed, out.String())
			}
			failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			var run []string
			for k, m := range res.Metrics {
				run = append(run, fmt.Sprintf("%s=%.4g", k, m.Value))
			}
			sort.Strings(run)
			fmt.Printf("%s seed %d: %s\n", w, seed, strings.Join(run, " "))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs, failed/attempted %s\n", w, n, strings.Join(failShares, " "))
		fmt.Printf("  %-44s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, k := range keys {
			vs := values[k]
			q1, q3 := quartiles(vs)
			med := median(vs)
			fmt.Printf("  %-44s %14.4f %14.4f %14.4f %7.1f%% %s\n", k, med, q1, q3, 100*ratio(q3-q1, med), units[k])
		}
	}
	return nil
}
