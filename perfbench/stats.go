package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// pct returns the p-th percentile (0 < p < 100) by nearest rank.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// hasTail reports whether a p-th percentile has at least ten samples
// beyond it, the least for a tail figure to mean anything.
func (s samples) hasTail(p float64) bool {
	return float64(len(s))*(1-p/100) >= 10
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(vs []float64) (q1, q3 float64) {
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// reach reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(v float64) metric  { return metric{v, "ms"} }
func us(v float64) metric  { return metric{v, "us"} }
func sec(v float64) metric { return metric{v, "s"} }
func per(v float64) metric { return metric{v, "1/s"} }
func cnt(v float64) metric { return metric{v, "count"} }
func byt(v float64) metric { return metric{v, "bytes"} }

// e2eSet fills the gated end-to-end metrics every workload reports.
func e2eSet(rep *report, setup []float64, throughput float64, lat samples) {
	rep.e2e["setup_s"] = sec(median(setup))
	rep.e2e["throughput_per_s"] = per(throughput)
	rep.e2e["p50_us"] = us(lat.pct(50))
}

// tail records a descriptive p99, when the run yields at least ten
// samples beyond it.
func tail(rep *report, name string, lat samples) {
	if lat.hasTail(99) {
		rep.named[name] = us(lat.pct(99))
	}
}
