package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"webfountain/internal/eval"
	"webfountain/internal/lexicon"
	"webfountain/internal/serve"
)

// Each reference check must fail on a deliberately wrong output and
// pass on the right one.

func sampleFacts() [][]serve.Fact {
	return [][]serve.Fact{
		{
			{Subject: "Canon", Feature: "lens", Date: "2004-03-02", Positive: true},
			{Subject: "canon", Date: "2004-03-09", Positive: false},
			{Subject: "Fuji", Feature: "battery", Date: "2004-05-01", Positive: true},
		},
		{
			{Subject: "fuji", Date: "2004-06-11", Positive: true},
			{Subject: "Kodak", Feature: "zoom", Date: "2004-06-12", Positive: false},
		},
	}
}

func TestCheckViewFailsOnDroppedFact(t *testing.T) {
	want := referenceView(sampleFacts())
	if err := checkView(referenceView(sampleFacts()), want); err != nil {
		t.Fatalf("identical folds: %v", err)
	}
	wrong := sampleFacts()
	wrong[1] = wrong[1][:1] // the Kodak fact is dropped
	if err := checkView(referenceView(wrong), want); err == nil {
		t.Fatal("a dropped fact passed the aggregate check")
	}
}

func TestCheckViewFailsOnDoubledFact(t *testing.T) {
	want := referenceView(sampleFacts())
	wrong := sampleFacts()
	wrong[0] = append(wrong[0], wrong[0][2]) // the Fuji fact twice
	if err := checkView(referenceView(wrong), want); err == nil {
		t.Fatal("a doubled fact passed the aggregate check")
	}
}

func TestCheckMultisetFailsOnDroppedAndDoubledFact(t *testing.T) {
	want := []factKey{{"d1", 0, "nr70", 1, ""}, {"d1", 2, "battery", -1, "battery"}, {"d2", 1, "nr70", 1, ""}}
	if err := checkMultiset("facts", append([]factKey(nil), want...), want); err != nil {
		t.Fatalf("equal multisets: %v", err)
	}
	if err := checkMultiset("facts", want[:2], want); err == nil {
		t.Fatal("a dropped fact passed the multiset check")
	}
	if err := checkMultiset("facts", append(append([]factKey(nil), want...), want[1]), want); err == nil {
		t.Fatal("a doubled fact passed the multiset check")
	}
}

// fakeBackend serves a fixed aggregate store.
type fakeBackend struct{ agg *serve.Aggregates }

func (f fakeBackend) View() *serve.View                             { return f.agg.View() }
func (f fakeBackend) Entries(context.Context, string) []serve.Entry { return nil }
func (f fakeBackend) Degraded() (bool, string)                      { return false, "" }
func (f fakeBackend) NumDocs() int                                  { return 0 }
func (f fakeBackend) Ingest(context.Context, []serve.Doc) ([]string, int, error) {
	return nil, 0, nil
}

func render(t *testing.T, h http.Handler, key string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, key, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d", key, rec.Code)
	}
	return rec.Body.Bytes()
}

func TestCheckCachedBodyFailsOnStaleBody(t *testing.T) {
	agg := serve.NewAggregates()
	agg.Apply(sampleFacts()[0])
	gw := serve.NewGateway(fakeBackend{agg}, serve.GatewayConfig{CacheEntries: -1})
	const key = "/api/trend?name=fuji"
	stale := render(t, gw, key)
	agg.Apply(sampleFacts()[1]) // a later batch moves Fuji's series
	fresh := render(t, gw, key)
	if err := checkCachedBody(key, fresh, render(t, gw, key)); err != nil {
		t.Fatalf("same generation: %v", err)
	}
	if err := checkCachedBody(key, stale, fresh); err == nil {
		t.Fatal("a body from an older generation passed the cache check")
	}
}

func TestCheckReplicasFailsOnMissingPut(t *testing.T) {
	ok := map[string]string{"n1": "text", "n2": "text", "n3": ""}
	if err := checkReplicas("d1", "text", ok, 2); err != nil {
		t.Fatalf("two replicas: %v", err)
	}
	missing := map[string]string{"n1": "text", "n2": "", "n3": ""}
	if err := checkReplicas("d1", "text", missing, 2); err == nil {
		t.Fatal("a replica missing an acked put passed the check")
	}
	stale := map[string]string{"n1": "text", "n2": "older text"}
	if err := checkReplicas("d1", "text", stale, 2); err == nil {
		t.Fatal("a replica holding other text passed the check")
	}
}

func TestSentimentCheckFailsOnExtraEntry(t *testing.T) {
	want := []factKey{sentimentKey("probe-1", 2, "Fuji", 1), sentimentKey("probe-4", 0, "fuji", -1)}
	got := []factKey{sentimentKey("probe-4", 0, "FUJI", -1), sentimentKey("probe-1", 2, "fuji", 1)}
	if err := checkMultiset("sentiment", got, want); err != nil {
		t.Fatalf("same entries in another order and case: %v", err)
	}
	extra := append(got, sentimentKey("probe-9", 1, "fuji", 1))
	if err := checkMultiset("sentiment", extra, want); err == nil {
		t.Fatal("an extra routed sentiment entry passed the check")
	}
	if r := sentimentRecall(nil, want); r != 0 {
		t.Fatalf("recall of an empty answer = %v", r)
	}
}

func TestCheckGenerationsAndFresh(t *testing.T) {
	if err := checkGenerations(4, []uint64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := checkGenerations(4, []uint64{5, 7}); err == nil {
		t.Fatal("a skipped generation passed")
	}
	if err := checkFresh(6, 7); err == nil {
		t.Fatal("a response older than the last ack passed")
	}
	if err := checkFresh(7, 7); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMonthSums(t *testing.T) {
	v := referenceView(sampleFacts())
	dated := func(s string) int { return v.Counts(s).Total() }
	if err := checkMonthSums(v, dated); err != nil {
		t.Fatal(err)
	}
	if err := checkMonthSums(v, func(s string) int { return dated(s) + 1 }); err == nil {
		t.Fatal("month buckets that miss a dated fact passed")
	}
}

func TestCheckIDs(t *testing.T) {
	if err := checkIDs("q", []string{"b", "a"}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := checkIDs("q", []string{"a"}, []string{"a", "b"}); err == nil {
		t.Fatal("a search answer missing an ID passed")
	}
}

func TestCheckShape(t *testing.T) {
	var sm, col eval.Metrics
	// Miner: precise, low recall. Baseline: imprecise, high recall.
	for i := 0; i < 9; i++ {
		sm.Add(lexicon.Positive, lexicon.Positive)
		col.Add(lexicon.Positive, lexicon.Positive)
	}
	for i := 0; i < 10; i++ {
		sm.Add(lexicon.Positive, lexicon.Neutral)
		col.Add(lexicon.Neutral, lexicon.Negative)
		col.Add(lexicon.Neutral, lexicon.Positive)
		col.Add(lexicon.Neutral, lexicon.Positive)
		col.Add(lexicon.Neutral, lexicon.Positive)
	}
	if err := checkShape(sm, col); err != nil {
		t.Fatalf("expected shape: %v", err)
	}
	if err := checkShape(col, sm); err == nil {
		t.Fatal("swapped systems passed the shape check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

func TestLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"index.add.us_per_doc": "us", "cluster.run_ms_per_pass": "ms", "serve.cache.hit_ratio": "ratio",
		"boot.wal_bytes": "bytes", "trace.overhead_p50_pct": "%", "gateway.read.self_us": "us",
		"store.wal.fsyncs_per_doc": "count", "router.sentiment.recall": "ratio",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("%s: unit %q, want %q", name, got, want)
		}
	}
	for _, n := range layerNames {
		if strings.ContainsAny(n, " /") {
			t.Errorf("bad layer name %q", n)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	e2eSet(rep, []float64{1}, 1, samples{1})
	if len(b.EndToEnd) != len(rep.e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, runs report %d", len(b.EndToEnd), len(rep.e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := rep.e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	fillLayers(rep)
	if len(b.PerLayer) != len(rep.layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, runs report %d", len(b.PerLayer), len(rep.layers))
	}
	for _, m := range b.PerLayer {
		if got, ok := rep.layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("workloads %v, benchmark runs %v", names, workloads)
	}
}
