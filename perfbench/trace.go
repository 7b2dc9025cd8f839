package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webfountain/internal/metrics"
	"webfountain/internal/serve"
	"webfountain/internal/vinci"
)

// delta is the change of a metrics registry between two snapshots:
// counter increments and histogram count and sum increments.
type delta struct {
	counters map[string]int64
	hcount   map[string]int64
	hsum     map[string]int64 // nanoseconds for latency histograms
}

func newDelta() delta {
	return delta{counters: map[string]int64{}, hcount: map[string]int64{}, hsum: map[string]int64{}}
}

// addDiff adds b − a into d.
func (d delta) addDiff(a, b metrics.Snapshot) {
	for n, v := range b.Counters {
		d.counters[n] += v - a.Counters[n]
	}
	for n, h := range b.Histograms {
		d.hcount[n] += h.Count - a.Histograms[n].Count
		d.hsum[n] += h.Sum - a.Histograms[n].Sum
	}
}

// c returns a counter's increment.
func (d delta) c(name string) float64 { return float64(d.counters[name]) }

// sumUs returns a latency histogram's summed increment in microseconds.
func (d delta) sumUs(name string) float64 { return float64(d.hsum[name]) / 1e3 }

// meanUs returns a latency histogram's mean over the increment, in µs.
func (d delta) meanUs(name string) float64 {
	return ratio(float64(d.hsum[name]), float64(d.hcount[name])) / 1e3
}

// n returns a histogram's observation-count increment.
func (d delta) n(name string) float64 { return float64(d.hcount[name]) }

// local snapshots the benchmark process's own registry.
func local() metrics.Snapshot { return metrics.Default().Snapshot() }

// remote fetches a wfnode's or wfrouter's /metrics.json snapshot.
func remote(c *http.Client, addr string) (metrics.Snapshot, error) {
	var s metrics.Snapshot
	resp, err := c.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s/metrics.json: %s", addr, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// layerClock accumulates time spent below the gateway for one request;
// the traced backend finds it in the request context.
type layerClock struct{ backend atomic.Int64 }

type clockKey struct{}

// gatewayTrace wraps the serve.Backend handed to serve.NewGateway and
// the handler the gateway is, so a traced run can split a request's
// time into the gateway's own share and the backend's. While off, the
// wrappers pass straight through.
type gatewayTrace struct {
	on atomic.Bool

	mu sync.Mutex
	// Per endpoint: handler time, backend time, response bytes.
	handler map[string]*samples
	self    map[string]*samples
	bytes   map[string]float64
	// Backend calls: Ingest and Entries durations.
	ingest  samples
	entries samples
}

func newGatewayTrace() *gatewayTrace {
	return &gatewayTrace{handler: map[string]*samples{}, self: map[string]*samples{}, bytes: map[string]float64{}}
}

// backend returns the wrapped backend.
func (g *gatewayTrace) backend(b serve.Backend) serve.Backend { return tracedBackend{b, g} }

// handler wraps the gateway handler.
func (g *gatewayTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !g.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		lc := &layerClock{}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), clockKey{}, lc)))
		total := time.Since(start)
		ep := strings.TrimPrefix(r.URL.Path, "/api/")
		g.mu.Lock()
		if g.handler[ep] == nil {
			g.handler[ep], g.self[ep] = &samples{}, &samples{}
		}
		g.handler[ep].add(total)
		g.self[ep].add(total - time.Duration(lc.backend.Load()))
		g.bytes[ep] += float64(cw.n)
		g.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// tracedBackend times the Backend calls that do real work.
type tracedBackend struct {
	serve.Backend
	g *gatewayTrace
}

func (t tracedBackend) timed(ctx context.Context, into *samples, f func()) {
	if !t.g.on.Load() {
		f()
		return
	}
	start := time.Now()
	f()
	d := time.Since(start)
	if lc, ok := ctx.Value(clockKey{}).(*layerClock); ok {
		lc.backend.Add(int64(d))
	}
	t.g.mu.Lock()
	into.add(d)
	t.g.mu.Unlock()
}

func (t tracedBackend) Entries(ctx context.Context, subject string) (out []serve.Entry) {
	t.timed(ctx, &t.g.entries, func() { out = t.Backend.Entries(ctx, subject) })
	return out
}

func (t tracedBackend) Ingest(ctx context.Context, docs []serve.Doc) (ids []string, facts int, err error) {
	t.timed(ctx, &t.g.ingest, func() { ids, facts, err = t.Backend.Ingest(ctx, docs) })
	return ids, facts, err
}

// gatewayLayers reports the gateway and serving layer metrics from a
// traced gateway. Endpoints the workload did not call report 0.
func (g *gatewayTrace) layers(rep *report) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var readSelf, readBytes, reads float64
	for _, ep := range []string{"subjects", "sentiment", "trend", "aspects", "overview"} {
		h := g.handler[ep]
		if h == nil {
			rep.layers["gateway."+ep+".p50_us"] = us(0)
			continue
		}
		rep.layers["gateway."+ep+".p50_us"] = us(h.pct(50))
		readSelf += g.self[ep].sum()
		readBytes += g.bytes[ep]
		reads += float64(len(*h))
	}
	rep.layers["gateway.read.self_us"] = us(ratio(readSelf, reads))
	rep.layers["gateway.read.bytes_per_response"] = byt(ratio(readBytes, reads))
	ingestSelf := 0.0
	if s := g.self["ingest"]; s != nil {
		ingestSelf = s.mean()
	}
	rep.layers["gateway.ingest.self_us_per_batch"] = us(ingestSelf)
	rep.layers["serving.ingest.us_per_batch"] = us(g.ingest.mean())
	rep.layers["serving.entries.us_per_call"] = us(g.entries.mean())
}

// tracedClient wraps the vinci.Client the benchmark holds and times each
// call by service and op, as the client sees it.
type tracedClient struct {
	vinci.Client
	on *atomic.Bool
	mu *sync.Mutex
	by map[string]*samples
}

func (t tracedClient) Call(req vinci.Request) (vinci.Response, error) {
	if !t.on.Load() {
		return t.Client.Call(req)
	}
	start := time.Now()
	resp, err := t.Client.Call(req)
	d := time.Since(start)
	key := req.Service + "." + req.Op
	t.mu.Lock()
	if t.by[key] == nil {
		t.by[key] = &samples{}
	}
	t.by[key].add(d)
	t.mu.Unlock()
	return resp, err
}
